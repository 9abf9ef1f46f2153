package lexer

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ftsh/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := All(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	out := make([]token.Kind, len(toks))
	for i, tk := range toks {
		out[i] = tk.Kind
	}
	return out
}

func TestSimpleCommand(t *testing.T) {
	got := kinds(t, "wget http://server/file.tar.gz\n")
	want := []token.Kind{token.WORD, token.WORD, token.NEWLINE, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestRedirectionOperators(t *testing.T) {
	cases := []struct {
		src  string
		want token.Kind
	}{
		{"cmd > f", token.GT},
		{"cmd >> f", token.GTGT},
		{"cmd < f", token.LT},
		{"cmd >& f", token.GTAMP},
		{"cmd -> v", token.DASHGT},
		{"cmd ->> v", token.DASHGTGT},
		{"cmd -< v", token.DASHLT},
		{"cmd ->& v", token.DASHGTAMP},
	}
	for _, c := range cases {
		toks, err := All(c.src)
		if err != nil {
			t.Fatalf("lex %q: %v", c.src, err)
		}
		if toks[1].Kind != c.want {
			t.Errorf("%q: second token = %v, want %v", c.src, toks[1].Kind, c.want)
		}
		if toks[2].Kind != token.WORD {
			t.Errorf("%q: third token = %v, want WORD", c.src, toks[2].Kind)
		}
	}
}

func TestDashWordsAreNotRedirections(t *testing.T) {
	toks, err := All("rm -f file")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != token.WORD || toks[1].Text != "-f" {
		t.Fatalf("second token = %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestVariableForms(t *testing.T) {
	toks, err := All("echo ${server} $port http://${server}/x")
	if err != nil {
		t.Fatal(err)
	}
	// ${server}
	if s := toks[1].Segs; len(s) != 1 || s[0].Kind != token.SegVar || s[0].Text != "server" {
		t.Fatalf("segs = %+v", s)
	}
	// $port
	if s := toks[2].Segs; len(s) != 1 || s[0].Kind != token.SegVar || s[0].Text != "port" {
		t.Fatalf("segs = %+v", s)
	}
	// mixed word
	s := toks[3].Segs
	if len(s) != 3 || s[0].Text != "http://" || s[1].Kind != token.SegVar || s[1].Text != "server" || s[2].Text != "/x" {
		t.Fatalf("mixed segs = %+v", s)
	}
}

func TestQuoting(t *testing.T) {
	toks, err := All(`echo "hello world" 'lit ${x}' "tab\tend"`)
	if err != nil {
		t.Fatal(err)
	}
	if lit := toks[1].Segs[0].Text; lit != "hello world" {
		t.Fatalf("dquote lit = %q", lit)
	}
	if lit := toks[2].Segs[0].Text; lit != "lit ${x}" {
		t.Fatalf("squote lit = %q (single quotes must not expand)", lit)
	}
	if lit := toks[3].Segs[0].Text; lit != "tab\tend" {
		t.Fatalf("escape lit = %q", lit)
	}
	for _, i := range []int{1, 2, 3} {
		if !toks[i].Quoted {
			t.Errorf("token %d not marked quoted", i)
		}
	}
}

func TestDquoteExpansion(t *testing.T) {
	toks, err := All(`echo "got file from ${server}!"`)
	if err != nil {
		t.Fatal(err)
	}
	s := toks[1].Segs
	if len(s) != 3 || s[1].Kind != token.SegVar || s[1].Text != "server" || s[2].Text != "!" {
		t.Fatalf("segs = %+v", s)
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "echo hi # a comment\necho bye")
	want := []token.Kind{token.WORD, token.WORD, token.NEWLINE, token.WORD, token.WORD, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestSemicolonSeparates(t *testing.T) {
	got := kinds(t, "a; b")
	want := []token.Kind{token.WORD, token.NEWLINE, token.WORD, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestLineContinuation(t *testing.T) {
	got := kinds(t, "echo a \\\n b")
	want := []token.Kind{token.WORD, token.WORD, token.WORD, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestEmptyQuotedWord(t *testing.T) {
	toks, err := All(`echo ""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != token.WORD || !toks[1].Quoted || len(toks[1].Segs) != 0 {
		t.Fatalf("tok = %+v", toks[1])
	}
}

func TestRedirArrowAfterWord(t *testing.T) {
	toks, err := All("cut -f2 /proc/sys/fs/file-nr -> n")
	if err != nil {
		t.Fatal(err)
	}
	// file-nr must stay a single word: '-' not followed by > or <.
	if toks[2].Text != "/proc/sys/fs/file-nr" {
		t.Fatalf("word = %q", toks[2].Text)
	}
	if toks[3].Kind != token.DASHGT {
		t.Fatalf("op = %v", toks[3].Kind)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{
		`echo "unterminated`,
		`echo 'unterminated`,
		"echo ${unclosed\n",
		"echo trailing\\",
	} {
		if _, err := All(src); err == nil {
			t.Errorf("lex %q: expected error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := All("a\n  bb ccc")
	if err != nil {
		t.Fatal(err)
	}
	if p := toks[0].Pos; p.Line != 1 || p.Col != 1 {
		t.Fatalf("a at %v", p)
	}
	if p := toks[2].Pos; p.Line != 2 || p.Col != 3 {
		t.Fatalf("bb at %v", p)
	}
	if p := toks[3].Pos; p.Line != 2 || p.Col != 6 {
		t.Fatalf("ccc at %v", p)
	}
}

func TestBareDollar(t *testing.T) {
	toks, err := All("echo a$ b")
	if err != nil {
		t.Fatal(err)
	}
	if lit := toks[1].Segs[0].Text; lit != "a$" {
		t.Fatalf("lit = %q", lit)
	}
}

// Property: lexing never panics and always terminates with EOF or error,
// for arbitrary printable input.
func TestQuickLexerTotal(t *testing.T) {
	f := func(raw []byte) bool {
		// Map bytes into mostly-printable space to hit interesting paths.
		src := make([]byte, len(raw))
		for i, b := range raw {
			src[i] = 32 + b%95
			if b%17 == 0 {
				src[i] = '\n'
			}
		}
		toks, err := All(string(src))
		if err != nil {
			return true // errors are fine; panics are not
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLexAllocs is the lexer's allocation budget on two conformance
// scripts: the token slice as it grows, and the segment slabs. Each
// allocated once per word (flushLit's append) and once per line (the
// NEWLINE's text) before words were carved from a slab and newlines
// sliced from the source: 19 and 56 allocations.
func TestLexAllocs(t *testing.T) {
	for _, c := range []struct {
		script string
		budget float64
	}{
		{"recursion.ftsh", 6},
		{"nested_reader.ftsh", 11},
	} {
		b, err := os.ReadFile(filepath.Join("..", "interp", "testdata", c.script))
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		got := testing.AllocsPerRun(20, func() {
			if _, err := All(src); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("lexing %s: %.0f allocations, budget %.0f", c.script, got, c.budget)
		}
	}
}

// TestSlabWordsDoNotOverlap appends to each word's segments and checks
// that no other word changed: a word carved from a shared slab is
// capped at its own end, so an append must move it, not write into its
// neighbour.
func TestSlabWordsDoNotOverlap(t *testing.T) {
	toks, err := All(`a ${b}c "d$e" f` + "\n" + `g${h}i${j} k`)
	if err != nil {
		t.Fatal(err)
	}
	var words [][]token.Segment
	for _, tk := range toks {
		if tk.Kind == token.WORD {
			words = append(words, append([]token.Segment(nil), tk.Segs...))
		}
	}
	for i, tk := range toks {
		if tk.Kind == token.WORD {
			_ = append(toks[i].Segs, token.Segment{Text: "clobber"})
		}
	}
	w := 0
	for _, tk := range toks {
		if tk.Kind != token.WORD {
			continue
		}
		if !reflect.DeepEqual(tk.Segs, words[w]) {
			t.Errorf("word %q: segments %+v after its neighbours grew, want %+v", tk.Text, tk.Segs, words[w])
		}
		w++
	}
}

func TestPositionalSpecials(t *testing.T) {
	toks, err := All("echo $* $# ${3}")
	if err != nil {
		t.Fatal(err)
	}
	if s := toks[1].Segs; len(s) != 1 || s[0].Kind != token.SegVar || s[0].Text != "*" {
		t.Fatalf("$* segs = %+v", s)
	}
	if s := toks[2].Segs; len(s) != 1 || s[0].Kind != token.SegVar || s[0].Text != "#" {
		t.Fatalf("$# segs = %+v", s)
	}
	if s := toks[3].Segs; len(s) != 1 || s[0].Kind != token.SegVar || s[0].Text != "3" {
		t.Fatalf("${3} segs = %+v", s)
	}
}
