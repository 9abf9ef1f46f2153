package ast

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/ftsh/token"
)

// TestLiteralNumIsParseNum: the number NewWord records for a literal is
// exactly ParseNum's, and it records one exactly when ParseNum accepts
// the text. The table covers the forms ParseFloat reads (signs, bases,
// exponents, underscores, inf and nan in any case); the random strings
// mix the bytes those forms start with.
func TestLiteralNumIsParseNum(t *testing.T) {
	cases := []string{
		"", "0", "7", "1000", "007", "999999999999999", "9999999999999999",
		"-5", "+3", "-", "+", ".5", "5.", ".", "1e3", "1E-3", "1e400", "-1e400", "1e-400",
		"0x1p4", "0X1P-2", "0x", "1_000", "0x1_0p0", "_1",
		"inf", "Inf", "+INF", "-inf", "infinity", "Infinity", "infin", "nan", "NaN", "-nan", "n", "i",
		"echo", "1000ms", "12a", " 1", "1 ",
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789+-.eExXpP_iInNaAfFtTy "
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(6))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		w := NewWord(token.Pos{}, []token.Segment{{Kind: token.SegLit, Text: s}}, false, s)
		v, ok := ParseNum(s)
		if _, err := strconv.ParseFloat(s, 64); ok != (err == nil) {
			t.Fatalf("%q: ParseNum says %v, ParseFloat's error is %v", s, ok, err)
		}
		if w.IsNum != ok {
			t.Fatalf("%q: IsNum = %v, ParseNum %v", s, w.IsNum, ok)
		}
		if w.IsNum && math.Float64bits(w.Num) != math.Float64bits(v) && !(math.IsNaN(w.Num) && math.IsNaN(v)) {
			t.Fatalf("%q: Num = %v, ParseNum = %v", s, w.Num, v)
		}
	}
}

// TestNewWordInternsNamedVars: a named variable reference carries its
// interned name; positional parameters and $* $# carry none.
func TestNewWordInternsNamedVars(t *testing.T) {
	segs := []token.Segment{
		{Kind: token.SegVar, Text: "word_test_var"},
		{Kind: token.SegVar, Text: "1"},
		{Kind: token.SegVar, Text: "*"},
	}
	NewWord(token.Pos{}, segs, false, "")
	if want := token.Intern("word_test_var"); segs[0].Sym != want {
		t.Errorf("named var Sym = %d, want %d", segs[0].Sym, want)
	}
	if segs[1].Sym != 0 || segs[2].Sym != 0 {
		t.Errorf("parameters carry Syms %d, %d", segs[1].Sym, segs[2].Sym)
	}
}
