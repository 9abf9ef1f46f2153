package interp_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/proc"
	"repro/internal/sim"
)

// loopSrc is the counting loop of the benchmark's ftsh-corpus workload
// (bench/testdata/ftsh/loop.ftsh): 1000 iterations of a condition and
// an expr, 2000 statements.
const loopSrc = `n=0
while ${n} .lt. 1000
  expr ${n} + 1 -> n
end
`

// runOnSim runs a parsed script to completion on a fresh simulator.
func runOnSim(tb testing.TB, run func(e *sim.Engine, p *sim.Proc) error) {
	tb.Helper()
	var err error
	e := sim.New(1)
	e.Spawn("script", func(p *sim.Proc) { err = run(e, p) })
	if runErr := e.Run(); runErr != nil {
		tb.Fatalf("engine: %v", runErr)
	}
	if err != nil {
		tb.Fatalf("script: %v", err)
	}
}

// TestLoopAllocsPerStatement is the allocation budget of a statement:
// an iteration of the counting loop allocates the value it captures and
// nothing else (its argv lives on the interpreter's argv stack), and the
// whole run — fresh engine and interpreter included — stays under 0.6
// allocations per statement (it was 14, then 1.06 while every command
// allocated its argv).
func TestLoopAllocsPerStatement(t *testing.T) {
	script, err := parser.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	runner := proc.NewMapRunner()
	var n string
	allocs := testing.AllocsPerRun(5, func() {
		runOnSim(t, func(e *sim.Engine, p *sim.Proc) error {
			in := interp.New(interp.Config{Runner: runner, Runtime: p})
			defer func() { n = in.Var("n") }()
			return in.Run(e.Context(), script)
		})
	})
	if n != "1000" {
		t.Fatalf("loop counted to %q", n)
	}
	if perStmt := allocs / 2000; perStmt > 0.6 {
		t.Fatalf("%.0f allocations per run, %.2f per statement: budget 0.6", allocs, perStmt)
	}
}

// TestTryNoTraceNoFormat bounds what a try, a forany and a forall
// allocate when executed again with no tracer and no log: nothing may
// be formatted for either — no span name, no position string, no joined
// argv — so what is left is the constructs' own state.
func TestTryNoTraceNoFormat(t *testing.T) {
	script, err := parser.Parse(`try 3 times
  forany s in a b
    ok ${s}
  end
end
forall x in p q
  ok ${x}
end
`)
	if err != nil {
		t.Fatal(err)
	}
	runner := proc.NewMapRunner()
	runner.Register("ok", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error { return nil })
	var allocs float64
	runOnSim(t, func(e *sim.Engine, p *sim.Proc) error {
		in := interp.New(interp.Config{Runner: runner, Runtime: p})
		// The first execution (AllocsPerRun's warm-up) makes the Stats
		// entries; the measured ones find them.
		allocs = testing.AllocsPerRun(20, func() {
			if err := in.Run(e.Context(), script); err != nil {
				t.Error(err)
			}
		})
		return nil
	})
	// Measured 56, most of it the two forall branches (a process, a
	// context and a copy of the variables each). Formatting one span
	// name or position costs 3 or more, and what this script used to
	// format — three span names, two thread names, two Stats keys, four
	// log lines — brought the count to 121.
	if allocs > 58 {
		t.Fatalf("%.0f allocations for a second execution of try/forany/forall: budget 58", allocs)
	}
}

// TestSharedTreeConcurrentRuns runs one parsed tree from 8 goroutines
// at once under the real runtime, forall branches and function calls
// included: the tree is immutable after Parse, so under -race this must
// be silent and every run must produce the same output.
func TestSharedTreeConcurrentRuns(t *testing.T) {
	script, err := parser.Parse(`function twice
  echo ${1} ${1} -> out
  echo ${out} $#
end
n=0
while ${n} .lt. 20
  expr ${n} + 1 -> n
end
forall x in a b c
  twice ${x} -> ignored
  ok "${x}" a${x}b
end
forany s in p q
  twice ${s}
end
try 2 times
  echo ${n} $*
end
`)
	if err != nil {
		t.Fatal(err)
	}
	runner := proc.NewMapRunner()
	runner.Register("ok", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error { return nil })
	const want = "p p 1\n20\n"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out syncBuffer
			in := interp.New(interp.Config{Runner: runner, Runtime: core.NewReal(int64(g + 1)), Stdout: &out})
			if err := in.Run(context.Background(), script); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			// The forall branches print in any order; what follows them
			// is sequential.
			if got := out.String(); len(got) < len(want) || got[len(got)-len(want):] != want {
				t.Errorf("goroutine %d: output %q does not end in %q", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}

// syncBuffer is a Stdout that parallel forall branches may share.
type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}
