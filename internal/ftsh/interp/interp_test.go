package interp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/ftsh/token"
	"repro/internal/proc"
	"repro/internal/sim"
)

// world is a little simulated universe for interpreter tests.
type world struct {
	eng    *sim.Engine
	runner *proc.MapRunner
	fs     *interp.MemFS
	out    bytes.Buffer
}

func newWorld(seed int64) *world {
	return &world{eng: sim.New(seed), runner: proc.NewMapRunner(), fs: interp.NewMemFS()}
}

// run executes src in one simulated process and returns the script error.
func (w *world) run(t testing.TB, src string, tweak func(cfg *interp.Config)) error {
	t.Helper()
	var scriptErr error
	w.eng.Spawn("script", func(p *sim.Proc) {
		cfg := interp.Config{
			Runner:  w.runner,
			Runtime: p,
			Stdout:  &w.out,
			Stderr:  &w.out,
			FS:      w.fs,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		in := interp.New(cfg)
		scriptErr = in.RunSource(w.eng.Context(), src)
	})
	if err := w.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return scriptErr
}

func TestGroupStopsAtFirstFailure(t *testing.T) {
	w := newWorld(1)
	var trace []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		w.runner.Register(name, func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
			trace = append(trace, name)
			if name == "b" {
				return core.ErrFailure
			}
			return nil
		})
	}
	err := w.run(t, "a\nb\nc\n", nil)
	if err == nil {
		t.Fatal("want failure")
	}
	if len(trace) != 2 || trace[1] != "b" {
		t.Fatalf("trace = %v: c must not run after b fails", trace)
	}
}

func TestTryRetriesWithVirtualBackoff(t *testing.T) {
	w := newWorld(1)
	calls := 0
	w.runner.Register("flaky", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		calls++
		if calls < 3 {
			return core.ErrFailure
		}
		return nil
	})
	err := w.run(t, "try for 1 hour\n  flaky\nend\n", nil)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	// Two backoffs: >= 1s+2s, < 2*(1s+2s).
	if e := w.eng.Elapsed(); e < 3*time.Second || e >= 6*time.Second {
		t.Fatalf("elapsed = %v", e)
	}
}

func TestTryTimesExhaustsThenCatchRuns(t *testing.T) {
	w := newWorld(1)
	gets, cleanups := 0, 0
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		gets++
		return core.ErrFailure
	})
	w.runner.Register("cleanup", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		cleanups++
		return nil
	})
	src := `try 5 times
  wget http://server/file.tar.gz
catch
  cleanup file.tar.gz
  failure
end
`
	err := w.run(t, src, nil)
	if err == nil {
		t.Fatal("catch re-raised failure; script must fail")
	}
	if gets != 5 || cleanups != 1 {
		t.Fatalf("gets=%d cleanups=%d", gets, cleanups)
	}
}

func TestTryCatchSwallowsWhenCatchSucceeds(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("boom", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return core.ErrFailure
	})
	err := w.run(t, "try 2 times\n  boom\ncatch\n  echo recovered\nend\n", nil)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "recovered") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestTryTimeoutKillsHungCommand(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("hang", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return rt.Sleep(ctx, 24*time.Hour)
	})
	err := w.run(t, "try for 10 seconds\n  hang\nend\n", nil)
	if err == nil {
		t.Fatal("want exhaustion")
	}
	if e := w.eng.Elapsed(); e != 10*time.Second {
		t.Fatalf("elapsed = %v, want exactly 10s (session killed at budget)", e)
	}
}

func TestForanyPicksWinnerAndVarPersists(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		if strings.Contains(cmd.Args[0], "yyy") {
			return nil
		}
		return core.ErrFailure
	})
	src := `forany server in xxx yyy zzz
  wget http://${server}/file.tar.gz
end
echo got file from ${server}
`
	err := w.run(t, src, nil)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "got file from yyy") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestForanyAllFail(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return core.ErrFailure
	})
	err := w.run(t, "forany s in a b c\n  wget ${s}\nend\n", nil)
	var all *core.AllFailedError
	if !errors.As(err, &all) {
		t.Fatalf("err = %v", err)
	}
}

func TestForallRunsInParallelAndAbortsOnFailure(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("fetch", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		switch cmd.Args[0] {
		case "bad":
			if err := rt.Sleep(ctx, time.Second); err != nil {
				return err
			}
			return core.ErrFailure
		default:
			return rt.Sleep(ctx, time.Hour)
		}
	})
	err := w.run(t, "forall f in slow bad other\n  fetch ${f}\nend\n", nil)
	if err == nil {
		t.Fatal("want failure")
	}
	if e := w.eng.Elapsed(); e != time.Second {
		t.Fatalf("elapsed = %v, want 1s: failure must cancel hour-long branches", e)
	}
}

func TestForallParallelTiming(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("fetch", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return rt.Sleep(ctx, 10*time.Second)
	})
	err := w.run(t, "forall f in a b c d e\n  fetch ${f}\nend\n", nil)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if e := w.eng.Elapsed(); e != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s (parallel)", e)
	}
}

func TestForallBranchVarsAreIsolated(t *testing.T) {
	w := newWorld(1)
	src := `x=outer
forall f in a b
  x=${f}
end
echo x=${x}
`
	err := w.run(t, src, nil)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "x=outer") {
		t.Fatalf("out = %q: branch writes must not leak", w.out.String())
	}
}

// TestForallRecursionMeetsDepthLimit recurses through a forall: every
// level is a new branch, and each branch must carry its parent's call
// depth, or the recursion never meets maxCallDepth and runs until the
// engine's event guard (or, on the real runtime, memory) gives out.
func TestForallRecursionMeetsDepthLimit(t *testing.T) {
	w := newWorld(1)
	w.eng.MaxEvents = 20_000 // 200 levels take 402 events; unbounded recursion hits this
	src := `function f
  forall i in a
    f
  end
end
f
echo unreachable
`
	err := w.run(t, src, nil)
	if err == nil {
		t.Fatal("want the call-depth failure")
	}
	pe := innermostPosError(err)
	const want = `1:1: call depth exceeds 200: unbounded recursion in function "f"`
	if pe == nil || pe.Error() != want {
		t.Fatalf("innermost position error = %v, want %s (whole error: %v)", pe, want, err)
	}
	if strings.Contains(w.out.String(), "unreachable") {
		t.Fatal("statements after the failing call ran")
	}
}

// innermostPosError returns the deepest *PosError in err's Unwrap tree.
func innermostPosError(err error) *interp.PosError {
	var inner *interp.PosError
	var walk func(error)
	walk = func(err error) {
		if pe, ok := err.(*interp.PosError); ok {
			inner = pe
		}
		switch e := err.(type) {
		case interface{ Unwrap() error }:
			walk(e.Unwrap())
		case interface{ Unwrap() []error }:
			for _, err := range e.Unwrap() {
				walk(err)
			}
		}
	}
	walk(err)
	return inner
}

// TestForallBranchFunctionsArePrivate: a function defined inside a
// forall branch is the branch's, like its variables, while functions
// defined before the forall are visible in every branch.
func TestForallBranchFunctionsArePrivate(t *testing.T) {
	w := newWorld(1)
	src := `function h
  echo h ${1}
end
forall i in a b
  h ${i}
  function g
    echo g from ${i}
  end
  g
end
h after
g
`
	err := w.run(t, src, nil)
	if err == nil || !strings.Contains(err.Error(), "g: command not found") {
		t.Fatalf("err = %v, want g not found after the forall: branch definitions leaked", err)
	}
	out := w.out.String()
	for _, line := range []string{"h a\n", "h b\n", "g from a\n", "g from b\n", "h after\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("out = %q, want a line %q", out, line)
		}
	}
}

// TestForallBranchDefinitionsRaceFree runs branches that each define a
// function on the real runtime, where branches are goroutines: under
// -race the branches' definitions must not touch a shared table.
func TestForallBranchDefinitionsRaceFree(t *testing.T) {
	script, err := parser.Parse(`forall i in a b c d
  function g
    echo ${i}
  end
  g -> out
end
`)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		in := interp.New(interp.Config{Runner: proc.NewMapRunner(), Runtime: core.NewReal(int64(run))})
		if err := in.Run(context.Background(), script); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestWhileLoopWithExprCounter(t *testing.T) {
	w := newWorld(1)
	src := `n=0
while ${n} .lt. 5
  expr ${n} + 1 -> n
end
echo n=${n}
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "n=5") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestIfElifElse(t *testing.T) {
	for _, c := range []struct{ x, want string }{
		{"1", "one"}, {"2", "two"}, {"9", "many"},
	} {
		w := newWorld(1)
		src := fmt.Sprintf(`x=%s
if ${x} .eq. 1
  echo one
elif ${x} .eq. 2
  echo two
else
  echo many
end
`, c.x)
		if err := w.run(t, src, nil); err != nil {
			t.Fatalf("err = %v", err)
		}
		if !strings.Contains(w.out.String(), c.want) {
			t.Fatalf("x=%s out=%q want %q", c.x, w.out.String(), c.want)
		}
	}
}

func TestStringComparison(t *testing.T) {
	w := newWorld(1)
	src := `host=alpha
if ${host} .eql. alpha
  echo match
end
if ${host} .neql. beta
  echo nomatch
end
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "match") || !strings.Contains(w.out.String(), "nomatch") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestNumericComparisonOnGarbageFails(t *testing.T) {
	w := newWorld(1)
	err := w.run(t, "if pear .lt. 3\n  echo no\nend\n", nil)
	if err == nil {
		t.Fatal("want failure for non-numeric operand")
	}
}

func TestRedirectToVariableStripsNewline(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("freefds", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		fmt.Fprintln(cmd.Stdout, "4242")
		return nil
	})
	src := `freefds -> n
if ${n} .eq. 4242
  echo ok
end
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "ok") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestVariableRedirectionTransaction(t *testing.T) {
	// The paper's I/O-transaction idiom: capture into a variable, then
	// emit with cat -< only after success.
	w := newWorld(1)
	calls := 0
	w.runner.Register("run-simulation", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		calls++
		fmt.Fprintf(cmd.Stdout, "partial %d\n", calls)
		if calls < 3 {
			return core.ErrFailure
		}
		fmt.Fprintln(cmd.Stdout, "final answer")
		return nil
	})
	src := `try 5 times
  run-simulation ->& tmp
end
cat -< tmp
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	out := w.out.String()
	if !strings.Contains(out, "final answer") {
		t.Fatalf("out = %q", out)
	}
	if strings.Contains(out, "partial 1") || strings.Contains(out, "partial 2") {
		t.Fatalf("out = %q: earlier attempts' partial output leaked", out)
	}
}

func TestAppendToVariable(t *testing.T) {
	w := newWorld(1)
	src := `echo one ->> log
echo two ->> log
cat -< log
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if got := w.out.String(); !strings.Contains(got, "one\ntwo") {
		t.Fatalf("out = %q", got)
	}
}

func TestFileRedirection(t *testing.T) {
	w := newWorld(1)
	src := `echo hello > greeting.txt
echo again >> greeting.txt
cat greeting.txt
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	data, ok := w.fs.ReadFile("greeting.txt")
	if !ok || string(data) != "hello\nagain\n" {
		t.Fatalf("file = %q ok=%v", data, ok)
	}
	if !strings.Contains(w.out.String(), "hello\nagain") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestStdinFromFile(t *testing.T) {
	w := newWorld(1)
	w.fs.WriteFile("in.txt", []byte("payload"))
	if err := w.run(t, "cat < in.txt\n", nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "payload") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestFunctionPositionalArgs(t *testing.T) {
	w := newWorld(1)
	src := `function greet
  echo hi ${1} and ${2} of ${#}
end
greet alice bob
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "hi alice and bob of 2") {
		t.Fatalf("out = %q", w.out.String())
	}
}

// TestPositionalParamsSurviveTheBody: a function's parameters are a
// window on the argv stack, below the commands its body pushes. They
// must read the same after commands shorter than the call (which fit
// above them without growing the stack), after a nested call longer
// than it (which grows it), and in forall branches, which push on
// stacks of their own.
func TestPositionalParamsSurviveTheBody(t *testing.T) {
	w := newWorld(1)
	src := `function inner
  echo inner ${1} ${2} ${3} $#
end
function outer
  echo outer x ${1} ${3}
  inner p q r s t u v w
  echo outer after ${1} ${2} ${3} ${4} ${5} ${6} $*
  forall i in 1 2
    echo branch ${i} ${1} ${6}
  end
end
outer a b c d e f
echo top $#
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	const want = "outer x a c\ninner p q r 8\nouter after a b c d e f a b c d e f\n" +
		"branch 1 a f\nbranch 2 a f\ntop 0\n"
	if got := w.out.String(); got != want {
		t.Fatalf("out = %q, want %q", got, want)
	}
}

func TestFunctionFailurePropagates(t *testing.T) {
	w := newWorld(1)
	src := `function die
  failure
end
die
echo unreachable
`
	err := w.run(t, src, nil)
	if err == nil {
		t.Fatal("want failure")
	}
	if strings.Contains(w.out.String(), "unreachable") {
		t.Fatal("statements after failing call ran")
	}
}

func TestSuccessUnwindsFunction(t *testing.T) {
	w := newWorld(1)
	src := `function maybe
  success
  echo unreachable
end
maybe
echo after
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	out := w.out.String()
	if strings.Contains(out, "unreachable") || !strings.Contains(out, "after") {
		t.Fatalf("out = %q", out)
	}
}

func TestSuccessInsideTryUnwindsScript(t *testing.T) {
	w := newWorld(1)
	src := `try 3 times
  success
end
echo unreachable
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(w.out.String(), "unreachable") {
		t.Fatal("success did not unwind past try")
	}
}

func TestCommandNotFound(t *testing.T) {
	w := newWorld(1)
	err := w.run(t, "no-such-program\n", nil)
	if err == nil || !strings.Contains(err.Error(), "command not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestSleepBuiltinAdvancesVirtualClock(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "sleep 90\n", nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if w.eng.Elapsed() != 90*time.Second {
		t.Fatalf("elapsed = %v", w.eng.Elapsed())
	}
}

func TestListExpansionSplitsVariables(t *testing.T) {
	w := newWorld(1)
	hits := map[string]bool{}
	w.runner.Register("visit", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		hits[cmd.Args[0]] = true
		return nil
	})
	src := `servers=xxx yyy zzz
for s in ${servers}
  visit ${s}
end
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestQuotedVariableDoesNotSplit(t *testing.T) {
	w := newWorld(1)
	var got []string
	w.runner.Register("take", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		got = append([]string(nil), cmd.Args...) // Args is the runner's only until Run returns
		return nil
	})
	src := `v=a b c
take "${v}"
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 1 || got[0] != "a b c" {
		t.Fatalf("args = %v", got)
	}
}

func TestPaperEthernetSubmitterScript(t *testing.T) {
	// The §5 Ethernet submitter, verbatim shape: defer while free FDs
	// are below threshold, then submit.
	w := newWorld(1)
	free := 500
	submitted := 0
	w.runner.Register("freefds", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		fmt.Fprintln(cmd.Stdout, free)
		return nil
	})
	w.runner.Register("condor_submit", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		submitted++
		return nil
	})
	w.eng.Schedule(30*time.Second, func() { free = 5000 })
	src := `try for 5 minutes
  freefds -> n
  if ${n} .lt. 1000
    failure
  else
    condor_submit submit.job
  end
end
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if submitted != 1 {
		t.Fatalf("submitted = %d", submitted)
	}
	if w.eng.Elapsed() < 30*time.Second {
		t.Fatalf("elapsed = %v: must have backed off until FDs freed", w.eng.Elapsed())
	}
}

func TestPaperBlackHoleReaderScript(t *testing.T) {
	// §5 scenario three: probe the flag file first; the black hole makes
	// the probe hang, so the Ethernet reader defers to another server.
	w := newWorld(3)
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		url := cmd.Args[0]
		switch {
		case strings.Contains(url, "blackhole"):
			return rt.Sleep(ctx, 365*24*time.Hour) // never returns voluntarily
		case strings.HasSuffix(url, "/flag"):
			return rt.Sleep(ctx, 100*time.Millisecond)
		default:
			return rt.Sleep(ctx, 10*time.Second)
		}
	})
	src := `try for 900 seconds
  forany host in blackhole good1 good2
    try for 5 seconds
      wget http://${host}/flag
    end
    try for 60 seconds
      wget http://${host}/data
    end
  end
end
echo fetched from ${host}
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	out := w.out.String()
	if !strings.Contains(out, "fetched from good") {
		t.Fatalf("out = %q", out)
	}
	// Probe costs at most 5s on the black hole, then ~10s transfer.
	if e := w.eng.Elapsed(); e > 20*time.Second {
		t.Fatalf("elapsed = %v: probe should have skipped the black hole quickly", e)
	}
}

func TestInterpVarAPI(t *testing.T) {
	w := newWorld(1)
	var inVar string
	w.eng.Spawn("script", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: io.Discard})
		in.SetVar("target", "mars")
		if err := in.RunSource(w.eng.Context(), "dest=${target}\n"); err != nil {
			t.Errorf("err = %v", err)
		}
		inVar = in.Var("dest")
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inVar != "mars" {
		t.Fatalf("dest = %q", inVar)
	}
}

func TestLogTraceWritten(t *testing.T) {
	w := newWorld(1)
	var log bytes.Buffer
	w.runner.Register("boom", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return core.ErrFailure
	})
	_ = w.run(t, "try 2 times\n  boom\nend\n", func(cfg *interp.Config) { cfg.Log = &log })
	s := log.String()
	if !strings.Contains(s, "exec boom") || !strings.Contains(s, "failed") {
		t.Fatalf("log = %q", s)
	}
}

func TestMaxForallThrottlesBranches(t *testing.T) {
	w := newWorld(1)
	w.runner.Register("work", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		return rt.Sleep(ctx, 10*time.Second)
	})
	err := w.run(t, "forall f in a b c d\n  work ${f}\nend\n", func(cfg *interp.Config) {
		cfg.MaxForall = 2
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	// 4 branches, 2 at a time, 10s each => 20s.
	if e := w.eng.Elapsed(); e != 20*time.Second {
		t.Fatalf("elapsed = %v, want 20s", e)
	}
}

func TestStatsPostMortem(t *testing.T) {
	w := newWorld(1)
	calls := 0
	w.runner.Register("flaky", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		calls++
		if calls < 3 {
			return core.ErrFailure
		}
		return nil
	})
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		if strings.Contains(cmd.Args[0], "yyy") {
			return nil
		}
		return core.ErrFailure
	})
	src := `try for 1 hour
  flaky
end
forany s in xxx yyy zzz
  wget http://${s}/f
end
try 2 times
  wget http://xxx/f
end
`
	var st *interp.Stats
	w.eng.Spawn("script", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: io.Discard})
		_ = in.RunSource(w.eng.Context(), src)
		st = in.Stats()
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c := st.Commands["flaky"]; c == nil || c.Runs != 3 || c.Failures != 2 {
		t.Fatalf("flaky stats = %+v", c)
	}
	// wget: forany tried xxx (fail) then yyy (ok) = 2 runs 1 failure;
	// the final try ran xxx twice more (2 runs, 2 failures).
	if c := st.Commands["wget"]; c == nil || c.Runs != 4 || c.Failures != 3 {
		t.Fatalf("wget stats = %+v", c)
	}
	// First try: 3 attempts, 2 backoffs, no exhaustion.
	ts := st.Trys[token.Pos{Line: 1, Col: 1}]
	if ts == nil || ts.Trys != 1 || ts.Attempts != 3 || ts.Exhausted != 0 {
		t.Fatalf("try@1:1 = %+v", ts)
	}
	if ts.BackoffTotal < 3*time.Second || ts.BackoffTotal >= 6*time.Second {
		t.Fatalf("backoff total = %v, want [3s,6s)", ts.BackoffTotal)
	}
	// Second try (line 7): exhausted after 2 attempts, no catch.
	ts2 := st.Trys[token.Pos{Line: 7, Col: 1}]
	if ts2 == nil || ts2.Exhausted != 1 || ts2.Attempts != 2 || ts2.CaughtBy != 0 {
		t.Fatalf("try@7:1 = %+v", ts2)
	}
	// Forany winner recorded.
	wins := st.ForanyWins[token.Pos{Line: 4, Col: 1}]
	if wins == nil || wins["yyy"] != 1 {
		t.Fatalf("forany wins = %+v", wins)
	}
	// The report renders.
	var sb strings.Builder
	if _, err := st.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flaky", "wget", "forany winners", "yyy:1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// The report lists constructs in source order: line 2 before line
	// 10, though "10:1" sorts before "2:1" as text.
	w = newWorld(1)
	w.eng.Spawn("script", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: io.Discard})
		_ = in.RunSource(w.eng.Context(), "\ntry 1 times\n  true\nend\nforany s in a\n  true\nend\n\n\ntry 1 times\n  true\nend\nforany s in b\n  true\nend\n")
		st = in.Stats()
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if _, err := st.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	order := []string{"  2:1 ", "  10:1 ", "forany winners", "  5:1 ", "  13:1 "}
	for i, at := 0, 0; i < len(order); i++ {
		next := strings.Index(out[at:], order[i])
		if next < 0 {
			t.Fatalf("report does not list %q after %q:\n%s", order[i], order[:i], out)
		}
		at += next
	}
}

func TestExistsCondition(t *testing.T) {
	w := newWorld(1)
	w.fs.WriteFile("input.dat", []byte("x"))
	src := `if .exists. input.dat
  echo have input
end
if .exists. missing.dat
  echo ghost
else
  echo no ghost
end
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	out := w.out.String()
	if !strings.Contains(out, "have input") || !strings.Contains(out, "no ghost") || strings.Contains(out, "ghost\n") && !strings.Contains(out, "no ghost") {
		t.Fatalf("out = %q", out)
	}
}

func TestExistsPreflightIdiom(t *testing.T) {
	// §6's remedy for specification errors: test inputs before
	// submitting the job anywhere.
	w := newWorld(1)
	submitted := 0
	w.runner.Register("condor_submit", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		submitted++
		return nil
	})
	src := `if .exists. job.input
  condor_submit job
else
  failure
end
`
	if err := w.run(t, src, nil); err == nil {
		t.Fatal("missing input must fail the preflight")
	}
	if submitted != 0 {
		t.Fatal("job submitted despite failed preflight")
	}
	w.fs.WriteFile("job.input", []byte("data"))
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err after providing input = %v", err)
	}
	if submitted != 1 {
		t.Fatalf("submitted = %d", submitted)
	}
}

func TestTryEveryFixedInterval(t *testing.T) {
	w := newWorld(1)
	calls := 0
	w.runner.Register("flaky", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		calls++
		if calls < 4 {
			return core.ErrFailure
		}
		return nil
	})
	if err := w.run(t, "try for 1 hour every 10 seconds\n  flaky\nend\n", nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	// Three fixed 10 s delays, no randomization, no doubling.
	if e := w.eng.Elapsed(); e != 30*time.Second {
		t.Fatalf("elapsed = %v, want exactly 30s", e)
	}
}
