package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sim-scale: gridbench -fig scale as a subprocess. Lightweight clients
// that are pure timer traffic (ScheduleArg, wheel, arenas), no goroutine
// procs, at a population that leaves cache: the engine's hot path alone.
//
// sim-figures: a fixed bundle of gridbench figure invocations, the same
// engine used the other way: goroutine-backed procs, contexts,
// core.Try, lease.Manager and Book, condor, fsbuffer, replica, chaos.

// simSetups is how many times a sim workload sets up, for the median.
var simSetups = 5

// invocation is one gridbench command line (without -seed and
// -parallel, which every invocation gets).
type invocation struct {
	name  string // stem of its expected-output file
	layer string // per-layer metric that carries its wall time
	args  []string
	// pinned runs the figure on -seed 1 whatever the run's seed. The
	// paper figures' cost moves with their seed (fig 1: 97-145 ms, la:
	// 213-295 ms over six seeds), more than any bound could absorb, so
	// the bundle's work is pinned and the run's seed draws its order.
	pinned bool
}

func (inv invocation) seed(e *env) int64 {
	if inv.pinned {
		return 1
	}
	return e.seed
}

// scaleInv is the sim-scale operation: 1 k, 10 k and 100 k clients,
// 0.3 M events. The largest cell already leaves cache (2.7 M events/s
// against 5.2 M for the middle one). A larger figure does so further
// but is a poor yardstick on this host: over the same fifteen minutes a
// neighbour's load slowed -scale 0.25 (49 MB touched in half a second)
// by 45-95 % and -scale 0.1 by 0-40 %.
var scaleInv = invocation{name: "scale", args: []string{"-fig", "scale", "-scale", "0.1"}}

// warmInv is what set-up runs once: the smallest scale figure.
var warmInv = invocation{name: "warm", args: []string{"-fig", "scale", "-scale", "0.01"}}

// bundle is the sim-figures operation.
var bundle = []invocation{
	{"fig1", "condor.fig1_s", []string{"-fig", "1", "-scale", "0.1"}, true},
	{"fig4", "fsbuffer.fig4_s", []string{"-fig", "4", "-scale", "0.1"}, true},
	{"figres", "lease.figres_s", []string{"-fig", "res", "-scale", "0.1"}, true},
	{"figla", "lease.figla_s", []string{"-fig", "la", "-scale", "0.1"}, true},
	{"fignet", "lease.fignet_s", []string{"-fig", "net", "-scale", "0.1"}, true},
	{"fig2", "condor.fig23_s", []string{"-fig", "2"}, true},
	{"fig3", "condor.fig23_s", []string{"-fig", "3"}, true},
	{"fig6", "replica.fig67_s", []string{"-fig", "6"}, true},
	{"fig7", "replica.fig67_s", []string{"-fig", "7"}, true},
}

// bundleOrder draws the order of one pass over the bundle.
func bundleOrder(rng *rand.Rand) []invocation {
	order := append([]invocation(nil), bundle...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// cliRun is one finished gridbench process.
type cliRun struct {
	out   string // stdout without its wall-clock lines
	raw   string
	wall  time.Duration
	rssMB float64
}

// runCLI runs gridbench single-threaded and waits for it.
func runCLI(e *env, inv invocation, extra ...string) (*cliRun, error) {
	args := append([]string{"-parallel", "1", "-seed", strconv.FormatInt(inv.seed(e), 10)}, inv.args...)
	cmd := exec.Command(e.bench, append(args, extra...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := &cliRun{wall: time.Since(t0), raw: stdout.String()}
	if err != nil {
		return nil, fmt.Errorf("gridbench %s: %v: %s", strings.Join(inv.args, " "), err, stderr.String())
	}
	r.out = stripTiming(r.raw)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kB
	}
	return r, nil
}

// stripTiming drops the lines that carry wall-clock readings; what is
// left is a pure function of the seed.
func stripTiming(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "# timing:") || strings.HasPrefix(line, "# generated in") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// firstDiff names the first line at which two outputs part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "no difference"
}

func expectedPath(e *env, name string) string {
	return filepath.Join(e.root, "bench", "testdata", "expected", name+".txt")
}

// outputCheck holds what each invocation must print. On seed 1 that is
// the checked-in expected file; on any other seed, the output of the
// first invocation of the same command line.
type outputCheck struct {
	want map[string]string
}

// loadExpected reads the expected files; it is part of set-up.
func loadExpected(e *env, invs ...invocation) (*outputCheck, error) {
	c := &outputCheck{want: map[string]string{}}
	for _, inv := range invs {
		if inv.seed(e) != 1 {
			continue
		}
		b, err := os.ReadFile(expectedPath(e, inv.name))
		if err != nil {
			return nil, fmt.Errorf("expected output of %s: %w", inv.name, err)
		}
		c.want[inv.name] = string(b)
	}
	return c, nil
}

// check compares a run with what the invocation must print and, on a
// difference, fails the run naming the invocation and the first
// differing line.
func (c *outputCheck) check(o *outcome, inv invocation, r *cliRun) {
	want, ok := c.want[inv.name]
	if !ok {
		c.want[inv.name] = r.out
		return
	}
	if r.out != want {
		o.problem("gridbench %s: output drifted at %s", strings.Join(inv.args, " "), firstDiff(r.out, want))
	}
}

// tableColumn sums one column of the figure's table: the rows that
// start with a number, after the header that names the columns.
func tableColumn(out, column string) (float64, error) {
	col := -1
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "=") {
			continue
		}
		if col < 0 {
			for i, name := range f {
				if name == column {
					col = i
				}
			}
			continue
		}
		if col >= len(f) {
			continue
		}
		v, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			return 0, fmt.Errorf("column %s: %w", column, err)
		}
		sum += v
	}
	if col < 0 {
		return 0, fmt.Errorf("no column %q in the table", column)
	}
	return sum, nil
}

// simSetup is everything before the first timed operation: load the
// expected outputs and run the warm invocation, simSetups times over.
func simSetup(e *env, invs ...invocation) (*outputCheck, float64, error) {
	var check *outputCheck
	var took []float64
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		var err error
		if check, err = loadExpected(e, invs...); err != nil {
			return nil, 0, err
		}
		if _, err = runCLI(e, warmInv); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return check, median(took), nil
}

// cliOps runs op again and again until the measuring time is used up
// (at least twice), and fills the end-to-end metrics from the runs: one
// operation's wall time and the largest child.
func cliOps(o *outcome, d time.Duration, op func() (wall time.Duration, rssMB float64, err error)) error {
	var wall []float64
	var rss float64
	start := time.Now()
	for len(wall) < 2 || time.Since(start) < d {
		w, r, err := op()
		if err != nil {
			return err
		}
		o.attempted++
		wall = append(wall, ms(w))
		rss = max(rss, r)
	}
	o.set("op_p50_ms", median(wall))
	o.set("peak_rss_mb", rss)
	return nil
}

func runSimScale(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	check, setup, err := simSetup(e, scaleInv)
	if err != nil {
		return nil, err
	}
	if traced {
		return o, simScaleTraced(e, o, check)
	}
	err = cliOps(o, e.dur(1), func() (time.Duration, float64, error) {
		r, err := runCLI(e, scaleInv)
		if err != nil {
			return 0, 0, err
		}
		check.check(o, scaleInv, r)
		return r.wall, r.rssMB, nil
	})
	o.set("setup_s", setup)
	return o, err
}

func runSimFigures(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	check, setup, err := simSetup(e, bundle...)
	if err != nil {
		return nil, err
	}
	if traced {
		return o, simFiguresTraced(e, o, check)
	}
	rng := rand.New(rand.NewSource(e.seed))
	err = cliOps(o, e.dur(1), func() (wall time.Duration, rss float64, err error) {
		for _, inv := range bundleOrder(rng) {
			r, err := runCLI(e, inv)
			if err != nil {
				return 0, 0, err
			}
			wall, rss = wall+r.wall, max(rss, r.rssMB)
			check.check(o, inv, r)
		}
		return wall, rss, nil
	})
	o.set("setup_s", setup)
	return o, err
}

// writeExpected regenerates testdata/expected from the seed-1 output of
// every invocation the workloads use.
func writeExpected(e *env) error {
	if err := os.MkdirAll(filepath.Dir(expectedPath(e, "x")), 0o755); err != nil {
		return err
	}
	for _, inv := range append([]invocation{scaleInv}, bundle...) {
		r, err := runCLI(e, inv)
		if err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(e, inv.name), []byte(r.out), 0o644); err != nil {
			return err
		}
	}
	// loop.ftsh is the one script without a golden next door.
	loop := filepath.Join(e.root, "bench", "testdata", "ftsh", "loop")
	src, err := os.ReadFile(loop + ".ftsh")
	if err != nil {
		return err
	}
	got, _, _, err := runScript(&script{name: "loop", src: string(src)}, 1, false)
	if err != nil {
		return err
	}
	return os.WriteFile(loop+".golden", []byte(got), 0o644)
}
