package lexer

import (
	"testing"

	"repro/internal/ftsh/token"
)

// FuzzLex checks the lexer's totality and basic stream invariants on
// arbitrary bytes: Next must never panic, must terminate (every call
// consumes input or ends the stream), positions must be sane, and
// lexing must be deterministic; and tokens and errors must be those of
// the reference scanner, refWord.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"",
		"wget http://server/file\n",
		"try for 1 hour or 3 times every 10 seconds\n x\nend\n",
		`echo "quoted ${x} \" text" 'literal'`,
		"a=b c d\ncmd ${a} -> out\nrun >& log\ncat -< out\n",
		"echo $* $# ${9} ${name}\n",
		"cmd ->> v\ncmd -< v\n# comment to end of line\n",
		"if ${n} .lt. 1000\n ok\nend\n",
		"\"unterminated",
		"'also unterminated",
		"${unclosed",
		"\x00\xff\xfe weird bytes\n",
		"line\\\ncontinuation\n",
		// The shapes TestQuickLexMatchesReference mixes: runs that stay
		// source slices, and runs an escape or a gap copies.
		"run->out a-b ->x",
		"'q''r' \"s\"'t' a\"b\"c 'a'$x",
		"\"\\n\\t\\\"\\$\\\\\" \"a\\qb\"",
		"a\\ b \\$x \\'",
		"a$ b ${} $$ $- \"$\" x${}y",
		"$* $# ${*} ${#} $*x ${ 1}",
		"trailing\\",
		"\"trailing\\",
		"${x\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := checkLexMatchesReference(src); err != nil {
			t.Fatal(err)
		}
		toks, err := All(src)
		if err != nil {
			// Rejection is fine; it just must be repeatable.
			if _, err2 := All(src); err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("lex error not deterministic: %v vs %v", err, err2)
			}
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("token stream does not end in EOF: %v", toks)
		}
		for i, tok := range toks[:len(toks)-1] {
			if tok.Kind == token.EOF {
				t.Fatalf("EOF at %d before end of stream", i)
			}
			if tok.Pos.Line < 1 || tok.Pos.Col < 1 {
				t.Fatalf("token %d has impossible position %+v", i, tok.Pos)
			}
		}
		// Determinism: a second pass yields the identical stream.
		again, err := All(src)
		if err != nil {
			t.Fatalf("second lex of accepted input failed: %v", err)
		}
		if len(again) != len(toks) {
			t.Fatalf("second lex produced %d tokens, first %d", len(again), len(toks))
		}
		for i := range toks {
			if toks[i].Kind != again[i].Kind || toks[i].Pos != again[i].Pos {
				t.Fatalf("token %d diverged between identical lexes: %+v vs %+v", i, toks[i], again[i])
			}
		}
	})
}
