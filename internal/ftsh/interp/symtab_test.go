package interp_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/ftsh/token"
	"repro/internal/sim"
)

// symtabSrc names variables, a function, builtins, a Runner command and
// capture targets, both spelled out and built at run time.
const symtabSrc = `function greet
  echo hello ${1} -> greeting
end
greet world
h=greet
${h} again
v=dyn_target
echo ${greeting} -> ${v}
echo more ->> ${v}
cat -< ${v} -> copy
for i in a b
  expr 1 + 2 -> sum
end
`

// TestRerunInternsNothing: parsing and running one tree again and again
// adds no symbols. Only the first parse and the first run intern; the
// names a run builds are the same names every time.
func TestRerunInternsNothing(t *testing.T) {
	run := func() {
		tree, err := parser.Parse(symtabSrc)
		if err != nil {
			t.Fatal(err)
		}
		runOnSim(t, func(e *sim.Engine, p *sim.Proc) error {
			return interp.New(interp.Config{Runner: nopRunner{}, Runtime: p}).Run(e.Context(), tree)
		})
	}
	run()
	before := token.Interned()
	for i := 0; i < 1000; i++ {
		run()
	}
	if after := token.Interned(); after != before {
		t.Fatalf("1000 reruns of one script interned %d names", after-before)
	}
}

// TestInterpSizeIgnoresInternedNames: an interpreter pays for the names
// it uses, not for the names the process has interned. A fresh
// interpreter assigning one variable allocates the same bytes before and
// after 10 000 other scripts have each interned a fresh name, whether
// its variable was interned before them or after.
func TestInterpSizeIgnoresInternedNames(t *testing.T) {
	first := mustParse(t, "x=1\n")
	before := bytesPerRun(t, first)
	for i := 0; i < 10_000; i++ {
		mustParse(t, fmt.Sprintf("fresh_name_%d=%d\n", i, i))
	}
	last := mustParse(t, "interned_after_the_rest=1\n")
	for _, c := range []struct {
		name string
		tree *ast.Script
	}{{"x", first}, {"interned_after_the_rest", last}} {
		if got := bytesPerRun(t, c.tree); got > before {
			t.Errorf("%s=1 allocates %d bytes after 10 000 names were interned, %d before", c.name, got, before)
		}
	}
}

func mustParse(t *testing.T, src string) *ast.Script {
	t.Helper()
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// bytesPerRun is what a fresh interpreter running tree allocates, on
// average over 100 runs.
func bytesPerRun(t *testing.T, tree *ast.Script) uint64 {
	t.Helper()
	rt := core.NewReal(1)
	ctx := context.Background()
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if err := interp.New(interp.Config{Runner: nopRunner{}, Runtime: rt}).Run(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// nopRunner succeeds at every external command.
type nopRunner struct{}

func (nopRunner) Run(context.Context, core.Runtime, *interp.Command) error { return nil }
