package lexer

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ftsh/token"
)

// refWord is the word scanner as it stood before words were sliced
// from the source: it copies every byte it consumes into a raw builder
// for the token's Text and every literal byte into a second builder,
// and builds each variable name in a third. It is the oracle the lexer's
// word scanner is checked against.
func (l *Lexer) refWord(pos token.Pos) (token.Token, error) {
	w := &refWordBuilder{}
	for {
		c := l.peek()
		switch {
		case c == '\'':
			w.quoted = true
			w.raw.WriteByte(l.advance())
			for {
				if l.peek() == 0 {
					return token.Token{}, &Error{Pos: pos, Msg: "unterminated single-quoted string"}
				}
				ch := l.advance()
				w.raw.WriteByte(ch)
				if ch == '\'' {
					break
				}
				w.writeLit(ch, true)
			}
		case c == '"':
			w.quoted = true
			if err := l.refScanDQuote(pos, w); err != nil {
				return token.Token{}, err
			}
		case c == '$':
			if err := l.refScanVar(w, false); err != nil {
				return token.Token{}, err
			}
		case c == '\\':
			w.raw.WriteByte(l.advance())
			if l.peek() == 0 || l.peek() == '\n' {
				return token.Token{}, &Error{Pos: pos, Msg: "trailing backslash"}
			}
			ch := l.advance()
			w.raw.WriteByte(ch)
			w.writeLit(ch, false)
		case isWordByte(c) && !(c == '-' && (l.peekAt(1) == '>' || l.peekAt(1) == '<') && w.raw.Len() > 0):
			ch := l.advance()
			w.raw.WriteByte(ch)
			w.writeLit(ch, false)
		default:
			w.flushLit()
			if len(w.segs) == 0 && !w.quoted {
				return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			return token.Token{Kind: token.WORD, Pos: pos, Text: w.raw.String(), Segs: w.segs, Quoted: w.quoted}, nil
		}
	}
}

type refWordBuilder struct {
	segs      []token.Segment
	lit       strings.Builder
	litQuoted bool
	raw       strings.Builder
	quoted    bool
}

func (w *refWordBuilder) writeLit(c byte, quoted bool) {
	if w.lit.Len() > 0 && w.litQuoted != quoted {
		w.flushLit()
	}
	w.litQuoted = quoted
	w.lit.WriteByte(c)
}

func (w *refWordBuilder) flushLit() {
	if w.lit.Len() > 0 {
		w.segs = append(w.segs, token.Segment{Kind: token.SegLit, Text: w.lit.String(), Quoted: w.litQuoted})
		w.lit.Reset()
	}
}

func (l *Lexer) refScanDQuote(pos token.Pos, w *refWordBuilder) error {
	w.raw.WriteByte(l.advance())
	for {
		switch l.peek() {
		case 0:
			return &Error{Pos: pos, Msg: "unterminated double-quoted string"}
		case '"':
			w.raw.WriteByte(l.advance())
			return nil
		case '\\':
			w.raw.WriteByte(l.advance())
			if l.peek() == 0 {
				return &Error{Pos: pos, Msg: "trailing backslash in string"}
			}
			esc := l.advance()
			w.raw.WriteByte(esc)
			switch esc {
			case 'n':
				w.writeLit('\n', true)
			case 't':
				w.writeLit('\t', true)
			default:
				w.writeLit(esc, true)
			}
		case '$':
			if err := l.refScanVar(w, true); err != nil {
				return err
			}
		default:
			ch := l.advance()
			w.raw.WriteByte(ch)
			w.writeLit(ch, true)
		}
	}
}

func (l *Lexer) refScanVar(w *refWordBuilder, quoted bool) error {
	start := l.pos()
	w.raw.WriteByte(l.advance())
	var nameB strings.Builder
	if c := l.peek(); c == '*' || c == '#' {
		w.raw.WriteByte(l.advance())
		w.flushLit()
		w.segs = append(w.segs, token.Segment{Kind: token.SegVar, Text: string(c)})
		return nil
	}
	if l.peek() == '{' {
		w.raw.WriteByte(l.advance())
		for l.peek() != '}' {
			if l.peek() == 0 || l.peek() == '\n' {
				return &Error{Pos: start, Msg: "unterminated ${...}"}
			}
			ch := l.advance()
			w.raw.WriteByte(ch)
			nameB.WriteByte(ch)
		}
		w.raw.WriteByte(l.advance())
	} else {
		for isVarByte(l.peek()) {
			ch := l.advance()
			w.raw.WriteByte(ch)
			nameB.WriteByte(ch)
		}
	}
	name := nameB.String()
	if name == "" {
		w.writeLit('$', quoted)
		return nil
	}
	w.flushLit()
	w.segs = append(w.segs, token.Segment{Kind: token.SegVar, Text: name})
	return nil
}

// refAll is All with refWord scanning the words.
func refAll(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		lx.skipBlank()
		pos := lx.pos()
		t, ok := lx.punct(pos)
		if !ok {
			var err error
			if t, err = lx.refWord(pos); err != nil {
				return nil, err
			}
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

// checkLexMatchesReference requires All and refAll to agree on src:
// every token's kind, position, text, segments and quoting, or the
// error text.
func checkLexMatchesReference(src string) error {
	got, gotErr := All(src)
	want, wantErr := refAll(src)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("lex %q: err = %v, reference %v", src, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Errorf("lex %q:\n got %+v\nwant %+v", src, got, want)
	}
	return nil
}

// lexFragments are the pieces genLexSource strings together: every
// quote, escape and variable form, arrows that may follow a word, the
// separators, and the openings of every error (an unclosed quote or
// ${, a backslash before a newline or at the end).
var lexFragments = []string{
	"a", "bc", "b=c", "-f", "file-nr", "7", ".", "é", "{", "}", "*", "#x", "&",
	" ", "  ", "\t", "\n", ";", "\r", "\\\n",
	"'", "'q r'", "''", "\"", "\"s t\"", "\"\"", "\"\\n\\t\\\"\\$\\\\\"", "\"a${x}b\"", "\"$\"",
	"\\", "\\a", "\\ ", "\\'", "\\$",
	"$", "$x", "$x1_", "${x}", "${ 1}", "${}", "${", "$*", "$#", "${*}", "$$", "$-",
	"->", "->>", "->&", "-<", ">", ">>", ">&", "<", "-", "->x",
}

// genLexSource strings one to twelve fragments together, so that the
// shapes meet each other: a quote closes into a variable, an escape
// follows an arrow, a source ends inside any of them.
func genLexSource(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		b.WriteString(lexFragments[rng.Intn(len(lexFragments))])
	}
	return b.String()
}

// TestQuickLexMatchesReference runs random sources through the lexer
// and through refWord, and requires the same tokens, segments,
// positions and error texts.
func TestQuickLexMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		src := genLexSource(rand.New(rand.NewSource(seed)))
		if err := checkLexMatchesReference(src); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
