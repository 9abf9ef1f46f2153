package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/lexer"
	"repro/internal/ftsh/parser"
	"repro/internal/proc"
	"repro/internal/sim"
)

// ftsh-corpus: the paper's own artifact, in-process. The ftsh
// conformance scripts plus a counting loop, each pass parsed and
// interpreted on a fresh simulator: the only path where lexer, parser
// and interpreter are the cost.

const ftshLoopIter = 1000 // iterations of loop.ftsh's while

var (
	ftshSetups = 5
	ftshLoops  = 200 // runs of loop.ftsh in the traced run's loop stage
)

// script is one corpus member. golden is the transcript the script
// must produce on simulator seed 1; at other seeds the backoff draws
// differ, so the first pass's transcript stands in for it.
type script struct {
	name, src, golden string
}

// loadCorpus reads testdata/ftsh: a frozen copy of the interpreter's
// conformance corpus and its goldens, plus loop.ftsh. Frozen, because a
// benchmark's inputs must not move when the corpus next door grows.
func loadCorpus(root string) ([]script, error) {
	dir := filepath.Join(root, "bench", "testdata", "ftsh")
	files, err := filepath.Glob(filepath.Join(dir, "*.ftsh"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scripts in %s", dir)
	}
	sort.Strings(files)
	var corpus []script
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(strings.TrimSuffix(f, ".ftsh") + ".golden")
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, script{
			name: strings.TrimSuffix(filepath.Base(f), ".ftsh"), src: string(src), golden: string(golden),
		})
	}
	return corpus, nil
}

// fakeCommands registers the corpus's fake commands on a fresh runner.
// They are the ones the interpreter's own conformance test uses, keyed
// entirely by their arguments:
//
//	flaky N TAG  fail the first N calls per TAG, then print and succeed
//	hang         sleep until the session is cancelled
//	slow N TAG   sleep N virtual seconds, print, succeed
//	wget URL     "good": 2 s then print; "hang": forever; "slowbad":
//	             fail after 1 s; anything else fails at once
func fakeCommands() *proc.MapRunner {
	r := proc.NewMapRunner()
	calls := map[string]int{}
	r.Register("flaky", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		if len(cmd.Args) != 2 {
			return fmt.Errorf("flaky: want 2 args, got %d", len(cmd.Args))
		}
		n, err := strconv.Atoi(cmd.Args[0])
		if err != nil {
			return err
		}
		tag := cmd.Args[1]
		calls[tag]++
		if calls[tag] <= n {
			return core.ErrFailure
		}
		fmt.Fprintf(cmd.Stdout, "flaky %s ok on call %d\n", tag, calls[tag])
		return nil
	})
	r.Register("hang", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return rt.Sleep(ctx, 1000*time.Hour)
	})
	r.Register("slow", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		if len(cmd.Args) != 2 {
			return fmt.Errorf("slow: want 2 args, got %d", len(cmd.Args))
		}
		n, err := strconv.Atoi(cmd.Args[0])
		if err != nil {
			return err
		}
		if err := rt.Sleep(ctx, time.Duration(n)*time.Second); err != nil {
			return err
		}
		fmt.Fprintf(cmd.Stdout, "slow %s done\n", cmd.Args[1])
		return nil
	})
	r.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		if len(cmd.Args) != 1 {
			return fmt.Errorf("wget: want 1 arg, got %d", len(cmd.Args))
		}
		url := cmd.Args[0]
		switch {
		case strings.Contains(url, "hang"):
			return rt.Sleep(ctx, 1000*time.Hour)
		case strings.Contains(url, "slowbad"):
			if err := rt.Sleep(ctx, time.Second); err != nil {
				return err
			}
			return core.ErrFailure
		case strings.Contains(url, "good"):
			if err := rt.Sleep(ctx, 2*time.Second); err != nil {
				return err
			}
			fmt.Fprintf(cmd.Stdout, "fetched %s\n", url)
			return nil
		default:
			return core.ErrFailure
		}
	})
	return r
}

// scriptTimes is where one script's time went.
type scriptTimes struct{ lex, parse, interp time.Duration }

// runScript lexes (when asked to time it), parses and interprets one
// script on a fresh simulator, and returns its transcript: output,
// final status, virtual time elapsed.
func runScript(sc *script, seed int64, timeLex bool) (transcript string, events int64, t scriptTimes, err error) {
	if timeLex {
		t0 := time.Now()
		if _, err := lexer.All(sc.src); err != nil {
			return "", 0, t, err
		}
		t.lex = time.Since(t0)
	}
	t0 := time.Now()
	tree, err := parser.Parse(sc.src)
	if err != nil {
		return "", 0, t, err
	}
	t.parse = time.Since(t0)

	t0 = time.Now()
	var out bytes.Buffer
	var scriptErr error
	e := sim.New(seed)
	runner := fakeCommands()
	e.Spawn("script", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: runner, Runtime: p, Stdout: &out, Stderr: &out})
		scriptErr = in.Run(e.Context(), tree)
	})
	if err := e.Run(); err != nil {
		return "", 0, t, fmt.Errorf("engine: %w", err)
	}
	t.interp = time.Since(t0)
	if scriptErr != nil {
		fmt.Fprintf(&out, "-- error: %v\n", scriptErr)
	} else {
		out.WriteString("-- ok\n")
	}
	fmt.Fprintf(&out, "-- elapsed: %v\n", e.Elapsed())
	return out.String(), e.Events(), t, nil
}

// ftshRun is the state of one run's passes.
type ftshRun struct {
	corpus []script
	seed   int64
	rng    *rand.Rand
	order  []int
	want   map[string]string // transcript each script must produce
	events int64             // simulator events of the last pass
	times  scriptTimes
	ran    int64
}

func newFtshRun(corpus []script, seed int64) *ftshRun {
	r := &ftshRun{corpus: corpus, seed: seed, rng: rand.New(rand.NewSource(seed)), want: map[string]string{}}
	for i, sc := range corpus {
		r.order = append(r.order, i)
		if seed == 1 && sc.golden != "" {
			r.want[sc.name] = sc.golden
		}
	}
	return r
}

// pass runs every script once, in an order drawn from the seed, and
// checks each transcript.
func (r *ftshRun) pass(o *outcome, timeLex bool) error {
	r.rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
	r.events = 0
	for _, i := range r.order {
		sc := &r.corpus[i]
		got, events, t, err := runScript(sc, r.seed, timeLex)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		r.ran++
		r.events += events
		r.times.lex += t.lex
		r.times.parse += t.parse
		r.times.interp += t.interp
		want, ok := r.want[sc.name]
		if !ok {
			r.want[sc.name] = got
		} else if got != want {
			o.problem("ftsh %s: transcript drifted at %s", sc.name, firstDiff(got, want))
		}
	}
	return nil
}

func runFtsh(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	// Set-up: read the corpus and take the first pass, which pays for
	// every lazily built table in the three packages.
	var corpus []script
	var setups []float64
	for i := 0; i < ftshSetups; i++ {
		t0 := time.Now()
		var err error
		if corpus, err = loadCorpus(e.root); err != nil {
			return nil, err
		}
		if err := newFtshRun(corpus, e.seed).pass(o, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if traced {
		return o, ftshTraced(e, o, corpus)
	}
	run := newFtshRun(corpus, e.seed)
	var passMS []float64
	start := time.Now()
	for time.Since(start) < e.dur(1) {
		t0 := time.Now()
		if err := run.pass(o, false); err != nil {
			return nil, err
		}
		passMS = append(passMS, ms(time.Since(t0)))
	}
	o.attempted = run.ran
	o.set("op_p50_ms", median(passMS))
	rss, _, err := procStatus(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss)
	o.set("setup_s", median(setups))
	return o, nil
}

// ftshTraced splits a script's time into lexing, parsing and
// interpreting, counts allocation, and runs the counting loop alone.
func ftshTraced(e *env, o *outcome, corpus []script) error {
	run := newFtshRun(corpus, e.seed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passes := 0
	start := time.Now()
	for time.Since(start) < e.dur(0.5) {
		if err := run.pass(o, true); err != nil {
			return err
		}
		passes++
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	o.attempted = run.ran
	n := float64(run.ran)
	o.set("ftsh.scripts_per_s", n/wall.Seconds())
	o.set("ftsh.lex_us_per_script", us(run.times.lex)/n)
	// Parse lexes again on its way; what is left is the parser's own.
	o.set("ftsh.parse_us_per_script", us(run.times.parse-run.times.lex)/n)
	o.set("ftsh.interp_us_per_script", us(run.times.interp)/n)
	o.set("ftsh.alloc_kb_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(passes))
	o.set("ftsh.sim_events_per_pass", float64(run.events))

	var loop *script
	for i := range corpus {
		if corpus[i].name == "loop" {
			loop = &corpus[i]
		}
	}
	if loop == nil {
		return fmt.Errorf("no loop.ftsh in the corpus")
	}
	ns, allocs := perOp(ftshLoops*ftshLoopIter, func() {
		for i := 0; i < ftshLoops; i++ {
			if _, _, _, err := runScript(loop, e.seed, false); err != nil {
				o.problem("loop: %v", err)
				return
			}
		}
	})
	// One iteration is two statements: the condition and the expr.
	o.set("ftsh.loop_stmts_per_s", 2e9/ns)
	o.set("ftsh.allocs_per_stmt", allocs/2)
	return nil
}
