package interp_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/sim"
)

// sessionTrees are run in order by one interpreter. They share
// variable names without sharing a tree, define functions another tree
// calls, and name commands and capture targets only at run time.
var sessionTrees = []string{
	// A: a variable, a function reading it, and a function that
	// shadows the expr builtin.
	`shared=alpha
function show
  echo show ${shared} ${1}
end
function expr
  echo user-expr $*
end
`,
	// B: reads what A assigned, assigns again, calls A's function,
	// which sees B's assignment.
	`echo B read ${shared}
shared=beta
show x
`,
	// C: a head and capture targets that exist only at run time.
	`c=show
${c} dyn
h=echo
${h} dynamic echo
v=target_var
echo captured -> ${v}
echo more ->> ${v}
echo target ${target_var}
cat -< ${v} -> back
echo back ${back}
expr 1 + 2
e=expr
${e} 3 + 4
echo set from Go: ${from_go}
`,
	// D: forall branches assign, define and capture; none of it leaks.
	`iso=outer
forall x in a b
  iso=${x}
  echo ${x} -> branch_out
  function only_in_branch
    echo branch
  end
end
echo after ${iso} [${branch_out}]
`,
}

// TestSessionAcrossTrees checks what one interpreter keeps between
// trees: variables and functions are the session's, whichever tree
// named them, and the names a script builds at run time (a command in
// a variable, a capture target in a variable, a name set from Go) reach
// the same variables, functions and builtins as the names it spells.
func TestSessionAcrossTrees(t *testing.T) {
	trees := make([]*ast.Script, len(sessionTrees))
	for i, src := range sessionTrees {
		tree, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		trees[i] = tree
	}
	afterFn, err := parser.Parse("only_in_branch\n")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(1)
	w.eng.Spawn("session", func(p *sim.Proc) {
		ctx := w.eng.Context()
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: &w.out, Stderr: &w.out})
		in.SetVar("from_go", "yes")
		for i, tree := range trees {
			if err := in.Run(ctx, tree); err != nil {
				t.Errorf("tree %d: %v", i, err)
			}
		}
		if err := in.Run(ctx, afterFn); err == nil {
			t.Error("a function defined in a forall branch is visible after the forall")
		}
		for name, want := range map[string]string{
			"shared":     "beta",
			"target_var": "captured\nmore",
			"from_go":    "yes",
			"iso":        "outer",
			"branch_out": "",
			"never_set":  "",
		} {
			if got := in.Var(name); got != want {
				t.Errorf("Var(%q) = %q, want %q", name, got, want)
			}
		}
		in.SetVar("named_by_no_tree", "z")
		if got := in.Var("named_by_no_tree"); got != "z" {
			t.Errorf("SetVar then Var of a name no tree mentions: %q", got)
		}
		if err := in.RunSource(ctx, "echo ${named_by_no_tree} -> ${shared}\n"); err != nil {
			t.Error(err)
		}
		if got := in.Var("beta"); got != "z" {
			t.Errorf("capture into the variable ${shared} names: %q", got)
		}
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"B read alpha",
		"show beta x",
		"show beta dyn",
		"dynamic echo",
		"target captured more",
		"back captured more",
		"user-expr 1 + 2",
		"user-expr 3 + 4",
		"set from Go: yes",
		"after outer []",
	}, "\n") + "\n"
	if got := w.out.String(); got != want {
		t.Errorf("session output:\n%s\nwant:\n%s", got, want)
	}
}

// TestSessionFunctionCallsFromOtherTree checks that a function body
// runs against the caller's session whatever tree defined it: a
// recursive function from one tree, called by another, counts with the
// caller's variables.
func TestSessionFunctionCallsFromOtherTree(t *testing.T) {
	def, err := parser.Parse(`function countdown
  if ${left} .gt. 0
    builtin_seen=${left}
    expr ${left} - 1 -> left
    countdown
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	call, err := parser.Parse("left=3\ncountdown\necho left ${left} last ${builtin_seen}\n")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(1)
	w.eng.Spawn("session", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: &w.out})
		for _, tree := range []*ast.Script{def, call} {
			if err := in.Run(context.Background(), tree); err != nil {
				t.Error(err)
			}
		}
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.out.String(), "left 0 last 1\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}
