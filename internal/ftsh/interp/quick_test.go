package interp_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/ftsh/token"
	"repro/internal/proc"
	"repro/internal/sim"
)

// genScript emits a random, always-terminating ftsh program: nested
// try/forany/forall/for/if over the commands ok, fail, and flaky.
// While loops are excluded (they could be infinite); try budgets are
// attempt-bounded so exhaustion is guaranteed to terminate.
func genScript(rng *rand.Rand, depth int) string {
	var b strings.Builder
	genBlock(rng, &b, depth, 1+rng.Intn(3))
	return b.String()
}

func genBlock(rng *rand.Rand, b *strings.Builder, depth, stmts int) {
	for i := 0; i < stmts; i++ {
		genStmt(rng, b, depth)
	}
}

func genStmt(rng *rand.Rand, b *strings.Builder, depth int) {
	if depth <= 0 {
		genLeaf(rng, b)
		return
	}
	switch rng.Intn(8) {
	case 0:
		b.WriteString("try ")
		if rng.Intn(2) == 0 {
			b.WriteString("2 times\n")
		} else {
			b.WriteString("for 1 hour or 3 times\n")
		}
		genBlock(rng, b, depth-1, 1+rng.Intn(2))
		if rng.Intn(2) == 0 {
			b.WriteString("catch\n")
			genBlock(rng, b, depth-1, 1)
		}
		b.WriteString("end\n")
	case 1:
		b.WriteString("forany v in a b c\n")
		genBlock(rng, b, depth-1, 1+rng.Intn(2))
		b.WriteString("end\n")
	case 2:
		b.WriteString("forall v in x y\n")
		genBlock(rng, b, depth-1, 1)
		b.WriteString("end\n")
	case 3:
		b.WriteString("for v in 1 2 3\n")
		genBlock(rng, b, depth-1, 1)
		b.WriteString("end\n")
	case 4:
		b.WriteString("if ${v} .eql. a\n")
		genBlock(rng, b, depth-1, 1)
		if rng.Intn(2) == 0 {
			b.WriteString("else\n")
			genBlock(rng, b, depth-1, 1)
		}
		b.WriteString("end\n")
	case 5:
		b.WriteString("n=")
		b.WriteString([]string{"1", "2", "hello"}[rng.Intn(3)])
		b.WriteByte('\n')
	default:
		genLeaf(rng, b)
	}
}

func genLeaf(rng *rand.Rand, b *strings.Builder) {
	switch rng.Intn(6) {
	case 0:
		b.WriteString("ok\n")
	case 1:
		b.WriteString("flaky ${v}\n")
	case 2:
		b.WriteString("echo hi ${n} -> out\n")
	case 3:
		b.WriteString("sleep 0.5\n")
	case 4:
		b.WriteString("expr 1 + 2 -> n\n")
	default:
		b.WriteString("ok arg1 ${v}\n")
	}
}

// TestQuickRandomProgramsTerminate runs random programs end to end in
// virtual time: they must parse (by construction), print-round-trip,
// and execute to a clean success or failure without panicking, leaking
// processes, or stalling the engine.
func TestQuickRandomProgramsTerminate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genScript(rng, 3)

		script, err := parser.Parse(src)
		if err != nil {
			t.Logf("generated script did not parse:\n%s\nerr: %v", src, err)
			return false
		}
		// Printer round trip.
		printed := ast.String(script)
		if _, err := parser.Parse(printed); err != nil {
			t.Logf("printed form did not re-parse:\n%s\nerr: %v", printed, err)
			return false
		}

		e := sim.New(seed)
		runner := proc.NewMapRunner()
		runner.Register("ok", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
			return nil
		})
		flakyN := 0
		runner.Register("flaky", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
			flakyN++
			if flakyN%3 == 0 {
				return core.ErrFailure
			}
			return rt.Sleep(ctx, 100*time.Millisecond)
		})
		done := false
		e.Spawn("script", func(p *sim.Proc) {
			in := interp.New(interp.Config{Runner: runner, Runtime: p, Stdout: io.Discard})
			ctx, cancel := p.WithTimeout(e.Context(), 24*time.Hour)
			defer cancel()
			_ = in.Run(ctx, script) // success or failure both fine
			done = true
		})
		if err := e.Run(); err != nil {
			t.Logf("engine: %v\nscript:\n%s", err, src)
			return false
		}
		if !done {
			t.Logf("script did not finish:\n%s", src)
			return false
		}
		if e.Live() != 0 {
			t.Logf("leaked %d processes:\n%s", e.Live(), src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// refExpander is the expander as it stood before the parser resolved
// words: it reads every variable name again on every expansion, builds
// every word through a strings.Builder and every field list through
// strings.Fields. It looks at a word's segments and quoting only, never
// at what the parser stored, which makes it the oracle the interpreter's
// expander is checked against.
type refExpander struct {
	vars map[string]string
	args []string
}

func (r *refExpander) lookupVar(name string) (string, error) {
	switch name {
	case "*":
		return strings.Join(r.args, " "), nil
	case "#":
		return strconv.Itoa(len(r.args)), nil
	}
	if n, err := strconv.Atoi(name); err == nil {
		if n < 1 {
			return "", fmt.Errorf("invalid positional parameter $%s", name)
		}
		if n <= len(r.args) {
			return r.args[n-1], nil
		}
		return "", nil
	}
	return r.vars[name], nil
}

func (r *refExpander) expandWord(w *ast.Word) (string, error) {
	if w == nil {
		return "", nil
	}
	var b strings.Builder
	for _, seg := range w.Segs {
		switch seg.Kind {
		case token.SegLit:
			b.WriteString(seg.Text)
		case token.SegVar:
			v, err := r.lookupVar(seg.Text)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		}
	}
	return b.String(), nil
}

func (r *refExpander) expandFields(w *ast.Word) ([]string, error) {
	if !w.Quoted && len(w.Segs) == 1 && w.Segs[0].Kind == token.SegVar {
		v, err := r.lookupVar(w.Segs[0].Text)
		if err != nil {
			return nil, err
		}
		return strings.Fields(v), nil
	}
	s, err := r.expandWord(w)
	if err != nil {
		return nil, err
	}
	if s == "" && !w.Quoted {
		return nil, nil
	}
	return []string{s}, nil
}

func (r *refExpander) expandList(words []*ast.Word) ([]string, error) {
	var out []string
	for _, w := range words {
		fs, err := r.expandFields(w)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// Values a variable or positional parameter may hold in the expansion
// property: every way of being blank, of carrying blanks at either end
// or in the middle, the Unicode spaces strings.Fields splits on (U+0085,
// U+00A0), and bytes that are not UTF-8.
var genValues = []string{
	"", " ", "  ", "\t", "\n", "v", " v", "v ", " v ", "v w", "v  w", "v\tw", " v w ",
	"\u0085", "\u00a0", "v\u0085w", "v\u00a0w", "\u00a0v", "0", "12", "\xff", "v\xffw \xfe",
}

// Names a generated word may refer to: ordinary ones (set and unset),
// and every shape of positional name.
var genNames = []string{
	"x", "y", "z", "unset", "1", "2", "3", "9", "+1", "007", "0", "00", "-1",
	"99999999999999999999", "1x", " 1", "*", "#",
}

// genWord emits the source of one random word: one to three segments,
// each a literal or a ${reference}, the whole quoted or not.
func genWord(rng *rand.Rand) string {
	quoted := rng.Intn(3) == 0
	lits := []string{"a", "b=c", "7", ".", "-n"}
	if quoted {
		lits = append(lits, "", " ", "p q", " r ")
	}
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if rng.Intn(5) < 2 {
			b.WriteString(lits[rng.Intn(len(lits))])
		} else {
			b.WriteString("${" + genNames[rng.Intn(len(genNames))] + "}")
		}
	}
	if quoted {
		return `"` + b.String() + `"`
	}
	return b.String()
}

// TestQuickExpansionMatchesReference runs random word lists, under
// random variable values and positional parameters, as a command's argv
// and as an assignment's value, and requires the interpreter to expand
// them — fields, joined value, or error — exactly as refExpander does.
func TestQuickExpansionMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := &refExpander{vars: map[string]string{}}
		for _, name := range []string{"x", "y", "z", "1x", " 1", "99999999999999999999", "007", "+1", "0"} {
			ref.vars[name] = genValues[rng.Intn(len(genValues))]
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			ref.args = append(ref.args, genValues[rng.Intn(len(genValues))])
		}
		words := make([]string, 1+rng.Intn(4))
		for i := range words {
			words[i] = genWord(rng)
		}
		src := "probe " + strings.Join(words, " ") + "\nv=" + strings.Join(words, " ") + "\n"
		script, err := parser.Parse(src)
		if err != nil {
			t.Logf("generated script did not parse: %v\n%s", err, src)
			return false
		}

		var got []string
		runner := proc.NewMapRunner()
		runner.Register("probe", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
			got = append([]string{}, cmd.Args...)
			return nil
		})
		in := interp.New(interp.Config{Runner: runner, Runtime: core.NewReal(seed)})
		for k, v := range ref.vars {
			in.SetVar(k, v)
		}
		in.SetArgs(ref.args)
		gotErr := in.Run(context.Background(), script)

		// The command: fields, or the error that stopped the script.
		want, wantErr := ref.expandList(script.Body.Stmts[0].(*ast.CommandStmt).Words[1:])
		if wantErr != nil {
			if gotErr == nil || !strings.HasSuffix(gotErr.Error(), ": "+wantErr.Error()) {
				t.Logf("%q: err = %v, want %v", src, gotErr, wantErr)
				return false
			}
			return true
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Logf("%q with vars %q args %q: argv = %q, want %q", src, ref.vars, ref.args, got, want)
			return false
		}
		// The assignment: every value expanded whole, joined by spaces.
		var parts []string
		for _, w := range script.Body.Stmts[1].(*ast.AssignStmt).Values {
			s, err := ref.expandWord(w)
			if err != nil {
				t.Logf("%q: reference failed the assignment but not the command: %v", src, err)
				return false
			}
			parts = append(parts, s)
		}
		if gotErr != nil || in.Var("v") != strings.Join(parts, " ") {
			t.Logf("%q with vars %q args %q: v = %q (err %v), want %q", src, ref.vars, ref.args, in.Var("v"), gotErr, strings.Join(parts, " "))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
