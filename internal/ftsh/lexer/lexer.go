// Package lexer tokenizes ftsh source text.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/ftsh/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans ftsh source into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	// segs is the slab words' segments are carved from: its length is
	// what earlier words took, its spare capacity what the next may.
	segs []token.Segment
}

// A fresh slab holds one segment per slabSrcBytes of the source still
// to scan, and never fewer than slabMinSegs. The conformance scripts
// average 15 source bytes per segment, comments included, so one slab
// usually serves a whole script.
const (
	slabSrcBytes = 16
	slabMinSegs  = 8
)

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// All scans the entire input, returning every token up to and including
// EOF, or the first error.
func All(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

// isWordByte reports whether c may appear in an unquoted word.
func isWordByte(c byte) bool {
	switch c {
	case 0, ' ', '\t', '\n', '\r', '#', '>', '<', '"', '\'', ';':
		return false
	}
	return true
}

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	l.skipBlank()
	pos := l.pos()
	if t, ok := l.punct(pos); ok {
		return t, nil
	}
	return l.word(pos)
}

// skipBlank skips horizontal whitespace, comments, and line
// continuations.
func (l *Lexer) skipBlank() {
	for {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' {
			l.advance()
			continue
		}
		if c == '#' {
			for l.peek() != 0 && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		if c == '\\' && l.peekAt(1) == '\n' {
			l.advance()
			l.advance()
			continue
		}
		return
	}
}

// punct scans the end of input, a statement separator, or a
// redirection operator at pos; ok is false when a word starts there.
func (l *Lexer) punct(pos token.Pos) (t token.Token, ok bool) {
	switch c := l.peek(); {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}, true
	case c == '\n' || c == ';':
		l.advance()
		// Sliced from the source: string(c) would allocate per line.
		return token.Token{Kind: token.NEWLINE, Pos: pos, Text: l.src[l.off-1 : l.off]}, true
	case c == '>':
		l.advance()
		switch l.peek() {
		case '>':
			l.advance()
			return token.Token{Kind: token.GTGT, Pos: pos, Text: ">>"}, true
		case '&':
			l.advance()
			return token.Token{Kind: token.GTAMP, Pos: pos, Text: ">&"}, true
		}
		return token.Token{Kind: token.GT, Pos: pos, Text: ">"}, true
	case c == '<':
		l.advance()
		return token.Token{Kind: token.LT, Pos: pos, Text: "<"}, true
	case c == '-' && (l.peekAt(1) == '>' || l.peekAt(1) == '<'):
		l.advance()
		if l.peek() == '<' {
			l.advance()
			return token.Token{Kind: token.DASHLT, Pos: pos, Text: "-<"}, true
		}
		l.advance() // '>'
		switch l.peek() {
		case '>':
			l.advance()
			return token.Token{Kind: token.DASHGTGT, Pos: pos, Text: "->>"}, true
		case '&':
			l.advance()
			return token.Token{Kind: token.DASHGTAMP, Pos: pos, Text: "->&"}, true
		}
		return token.Token{Kind: token.DASHGT, Pos: pos, Text: "->"}, true
	}
	return token.Token{}, false
}

// word scans a (possibly quoted, possibly variable-bearing) word. Its
// Text is the source it spans: a word never contains a line
// continuation, so every byte the scanner consumes belongs to it.
func (l *Lexer) word(pos token.Pos) (token.Token, error) {
	start := l.off
	if len(l.segs) == cap(l.segs) {
		l.segs = make([]token.Segment, 0, max(slabMinSegs, (len(l.src)-l.off)/slabSrcBytes))
	}
	w := wordBuilder{src: l.src, segs: l.segs[len(l.segs):]}
	for {
		c := l.peek()
		switch {
		case c == '\'':
			w.quoted = true
			l.advance()
			for {
				if l.peek() == 0 {
					return token.Token{}, &Error{Pos: pos, Msg: "unterminated single-quoted string"}
				}
				if l.advance() == '\'' {
					break
				}
				w.writeSrc(l.off-1, true)
			}
		case c == '"':
			w.quoted = true
			if err := l.scanDQuote(pos, &w); err != nil {
				return token.Token{}, err
			}
		case c == '$':
			if err := l.scanVar(&w, false); err != nil {
				return token.Token{}, err
			}
		case c == '\\':
			l.advance()
			if l.peek() == 0 || l.peek() == '\n' {
				return token.Token{}, &Error{Pos: pos, Msg: "trailing backslash"}
			}
			l.advance()
			w.writeSrc(l.off-1, false)
		case isWordByte(c) && !(c == '-' && (l.peekAt(1) == '>' || l.peekAt(1) == '<') && l.off > start):
			// A redirection arrow may begin immediately after a word
			// (e.g. `run->out`); stop the word there. A leading '-'
			// arrow was already handled by Next.
			l.advance()
			w.writeSrc(l.off-1, false)
		default:
			w.flushLit()
			if len(w.segs) == 0 && !w.quoted {
				return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			return token.Token{Kind: token.WORD, Pos: pos, Text: l.src[start:l.off], Segs: l.carve(w.segs), Quoted: w.quoted}, nil
		}
	}
}

// carve closes a word whose segments were appended from the slab's
// spare capacity. A word that fit is left in the slab, capped at its own
// end so that no later append through it can write into the next
// word's; one that outgrew the spare capacity was moved to an array of
// its own by that append and leaves the slab as it was.
func (l *Lexer) carve(segs []token.Segment) []token.Segment {
	n := len(segs)
	if n == 0 {
		return nil
	}
	if n <= cap(l.segs)-len(l.segs) {
		l.segs = l.segs[:len(l.segs)+n]
	}
	return segs[:n:n]
}

// wordBuilder accumulates a word's segments, flushing the pending
// literal run whenever the quoting context changes so each literal
// segment carries an accurate Quoted flag.
//
// A pending run is the source slice src[litStart:litEnd] for as long as
// its bytes are consecutive source bytes; the first byte that is not —
// an escape's translation, or a byte after a gap such as a backslash or
// a closing and reopening quote — copies the run into lit, which then
// takes the rest of it.
type wordBuilder struct {
	src              string
	segs             []token.Segment
	litStart, litEnd int
	lit              strings.Builder
	spilled          bool // the pending run is in lit, not src[litStart:litEnd]
	litQuoted        bool
	quoted           bool
}

// writeSrc appends the source byte at offset at to the literal run of
// the given quoting context.
func (w *wordBuilder) writeSrc(at int, quoted bool) {
	w.startLit(quoted)
	switch {
	case w.spilled:
		w.lit.WriteByte(w.src[at])
	case w.litStart == w.litEnd:
		w.litStart, w.litEnd = at, at+1
	case at == w.litEnd:
		w.litEnd++
	default:
		w.spill(w.src[at])
	}
}

// writeByte appends c, which the source spells differently (an escape
// like \n), to the literal run of the given quoting context.
func (w *wordBuilder) writeByte(c byte, quoted bool) {
	w.startLit(quoted)
	if w.spilled {
		w.lit.WriteByte(c)
		return
	}
	w.spill(c)
}

// startLit flushes the pending run if its quoting context differs.
func (w *wordBuilder) startLit(quoted bool) {
	if w.litQuoted != quoted && (w.spilled || w.litStart < w.litEnd) {
		w.flushLit()
	}
	w.litQuoted = quoted
}

// spill moves the pending run into lit and appends c.
func (w *wordBuilder) spill(c byte) {
	w.lit.WriteString(w.src[w.litStart:w.litEnd])
	w.lit.WriteByte(c)
	w.spilled = true
}

// flushLit closes the pending literal run into a segment.
func (w *wordBuilder) flushLit() {
	var text string
	switch {
	case w.spilled:
		text = w.lit.String()
		w.lit.Reset()
		w.spilled = false
	case w.litStart < w.litEnd:
		text = w.src[w.litStart:w.litEnd]
	default:
		return
	}
	w.litStart, w.litEnd = 0, 0
	w.segs = append(w.segs, token.Segment{Kind: token.SegLit, Text: text, Quoted: w.litQuoted})
}

// scanDQuote consumes a double-quoted string (opening quote included),
// handling escapes and variable references.
func (l *Lexer) scanDQuote(pos token.Pos, w *wordBuilder) error {
	l.advance() // opening '"'
	for {
		switch l.peek() {
		case 0:
			return &Error{Pos: pos, Msg: "unterminated double-quoted string"}
		case '"':
			l.advance()
			return nil
		case '\\':
			l.advance()
			if l.peek() == 0 {
				return &Error{Pos: pos, Msg: "trailing backslash in string"}
			}
			switch l.advance() {
			case 'n':
				w.writeByte('\n', true)
			case 't':
				w.writeByte('\t', true)
			default:
				w.writeSrc(l.off-1, true)
			}
		case '$':
			if err := l.scanVar(w, true); err != nil {
				return err
			}
		default:
			l.advance()
			w.writeSrc(l.off-1, true)
		}
	}
}

// scanVar consumes `$name` or `${name}` at the current offset.
func (l *Lexer) scanVar(w *wordBuilder, quoted bool) error {
	start := l.pos()
	dollar := l.off
	l.advance() // '$'
	if c := l.peek(); c == '*' || c == '#' {
		// The positional specials $* (all args) and $# (arg count).
		l.advance()
		w.flushLit()
		w.segs = append(w.segs, token.Segment{Kind: token.SegVar, Text: l.src[l.off-1 : l.off]})
		return nil
	}
	var name string
	if l.peek() == '{' {
		l.advance()
		from := l.off
		for l.peek() != '}' {
			if l.peek() == 0 || l.peek() == '\n' {
				return &Error{Pos: start, Msg: "unterminated ${...}"}
			}
			l.advance()
		}
		name = l.src[from:l.off]
		l.advance() // '}'
	} else {
		from := l.off
		for isVarByte(l.peek()) {
			l.advance()
		}
		name = l.src[from:l.off]
	}
	if name == "" {
		// A bare '$' is literal, as in most shells.
		w.writeSrc(dollar, quoted)
		return nil
	}
	w.flushLit()
	w.segs = append(w.segs, token.Segment{Kind: token.SegVar, Text: name})
	return nil
}

// isVarByte reports whether c may appear in an un-braced variable name.
func isVarByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
