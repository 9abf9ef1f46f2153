package expt

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// renderSweep renders a sweep table to bytes for equality checks.
func renderSweep(t *testing.T, tbl *metrics.SweepTable) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := tbl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// tracedFigOutputs runs fig with tracing and checking enabled at the
// given parallelism and returns (rendered tables, trace JSONL bytes,
// violation list) — everything a figure emits.
func tracedFigOutputs(t *testing.T, parallel int, fig func(Options) []*metrics.SweepTable) (string, string, []chaos.Violation) {
	t.Helper()
	tr := trace.New()
	rec := &chaos.Recorder{}
	plan, err := chaos.Preset("mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scale: 0.1, Parallel: parallel, Trace: tr, Check: rec, Chaos: plan}
	var tables strings.Builder
	for _, tbl := range fig(opt) {
		tables.WriteString(renderSweep(t, tbl))
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return tables.String(), jsonl.String(), rec.Violations
}

// TestRunnerParallelMatchesSerial is the tentpole's contract: for every
// converted sweep, tables, traces, and violations at -parallel 8 must
// be byte-identical to the legacy serial path.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	figs := map[string]func(Options) []*metrics.SweepTable{
		"fig1": func(o Options) []*metrics.SweepTable { return []*metrics.SweepTable{Fig1(o)} },
		"fig45": func(o Options) []*metrics.SweepTable {
			bs := RunBufferSweep(o)
			return []*metrics.SweepTable{bs.Consumed, bs.Collisions}
		},
	}
	for name, fig := range figs {
		serialTables, serialTrace, serialViol := tracedFigOutputs(t, 1, fig)
		parTables, parTrace, parViol := tracedFigOutputs(t, 8, fig)
		if serialTables != parTables {
			t.Errorf("%s: tables differ between -parallel 1 and 8.\nserial:\n%s\nparallel:\n%s",
				name, serialTables, parTables)
		}
		if serialTrace != parTrace {
			t.Errorf("%s: trace JSONL differs between -parallel 1 and 8", name)
		}
		if len(serialViol) != len(parViol) {
			t.Errorf("%s: violations differ: %d serial vs %d parallel", name, len(serialViol), len(parViol))
		} else {
			for i := range serialViol {
				if serialViol[i] != parViol[i] {
					t.Errorf("%s: violation %d differs: %+v vs %+v", name, i, serialViol[i], parViol[i])
				}
			}
		}
	}
}

// TestRunnerFigLAParallelMatchesSerial covers the lease ablation, whose
// cells come in leased/unleased pairs with distinct violation routing.
func TestRunnerFigLAParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("lease ablation floors its window at two minutes")
	}
	run := func(parallel int) (string, string, []chaos.Violation) {
		tr := trace.New()
		rec := &chaos.Recorder{}
		la := FigLA(Options{Scale: 0.1, Parallel: parallel, Trace: tr, Check: rec})
		var jsonl bytes.Buffer
		if err := tr.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return renderSweep(t, la.Throughput) + renderSweep(t, la.Fairness), jsonl.String(), rec.Violations
	}
	serialTables, serialTrace, serialViol := run(1)
	parTables, parTrace, parViol := run(8)
	if serialTables != parTables {
		t.Errorf("figla tables differ.\nserial:\n%s\nparallel:\n%s", serialTables, parTables)
	}
	if serialTrace != parTrace {
		t.Error("figla trace JSONL differs between -parallel 1 and 8")
	}
	if len(serialViol) != len(parViol) {
		t.Errorf("figla violations differ: %d serial vs %d parallel", len(serialViol), len(parViol))
	}
}

// TestRunCellsCoversAllCellsOnce pins the pool mechanics: every cell
// index runs exactly once at any worker count, including workers > n.
func TestRunCellsCoversAllCellsOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 23
		var counts [n]atomic.Int64
		runCells(Options{Parallel: workers}, n, func(c int, _ cell) {
			counts[c].Add(1)
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("workers=%d: cell %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunCellsSerialUsesSharedSinks pins the legacy path: with one
// worker the cells see opt.Trace and opt.Check themselves, not copies.
func TestRunCellsSerialUsesSharedSinks(t *testing.T) {
	tr := trace.New()
	rec := &chaos.Recorder{}
	runCells(Options{Parallel: 1, Trace: tr, Check: rec}, 3, func(i int, c cell) {
		if c.tr != tr || c.rec != rec {
			t.Errorf("cell %d: serial path handed out private sinks", i)
		}
	})
}

// TestRunCellsPanicPropagates pins that a panicking cell surfaces after
// the pool drains, with the lowest cell's panic value.
func TestRunCellsPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "cell 2 failed" {
			t.Errorf("recovered %v, want panic from cell 2", r)
		}
	}()
	runCells(Options{Parallel: 4}, 8, func(c int, _ cell) {
		if c == 2 || c == 5 {
			panic("cell " + string(rune('0'+c)) + " failed")
		}
	})
	t.Error("runCells did not panic")
}

// TestRunCellsProcPanicPropagates: a panic inside a *spawned process*
// of a cell reaches runCells too. The coroutine switch re-raises it
// from Engine.Run on the worker's goroutine, inside the per-cell
// recover, so it surfaces in cell order like any other cell panic (on
// a goroutine of its own it would have killed the program).
func TestRunCellsProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		pp, ok := r.(*sim.ProcPanic)
		if !ok || pp.Proc != "client" || pp.Value != "cell 2 failed" {
			t.Errorf("recovered %v, want *sim.ProcPanic from cell 2's client", r)
		}
	}()
	runCells(Options{Parallel: 4}, 8, func(c int, _ cell) {
		eng := sim.New(int64(c))
		eng.Spawn("client", func(p *sim.Proc) {
			p.SleepFor(time.Second)
			if c == 2 || c == 5 {
				panic("cell " + string(rune('0'+c)) + " failed")
			}
		})
		if err := eng.Run(); err != nil {
			t.Error(err)
		}
	})
	t.Error("runCells did not panic")
}
