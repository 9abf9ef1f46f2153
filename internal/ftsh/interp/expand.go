package interp

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/token"
)

// lookupVar resolves a variable reference, including the positional
// parameters $1..$9, $* (all args space-joined), and $# (arg count) of
// the current function frame. Unset variables expand to the empty
// string, as in the Bourne shell. Which of these a name is was decided
// by the parser (token.ClassifyVar).
func (in *Interp) lookupVar(seg *token.Segment) (string, error) {
	if seg.Var == token.VarNamed {
		return in.vars.get(seg.Sym), nil
	}
	return in.lookupParam(seg)
}

// lookupParam is lookupVar for the positional parameters.
func (in *Interp) lookupParam(seg *token.Segment) (string, error) {
	switch seg.Var {
	case token.VarArgs:
		return strings.Join(in.args, " "), nil
	case token.VarCount:
		return strconv.Itoa(len(in.args)), nil
	case token.VarPos:
		if seg.Index <= len(in.args) {
			return in.args[seg.Index-1], nil
		}
		return "", nil
	}
	return "", fmt.Errorf("invalid positional parameter $%s", seg.Text) // VarBadPos
}

// expandWord expands a word to a single string (no splitting). Only a
// word that mixes segments builds anything: a literal's text was put
// together by the parser, and a lone variable reference expands to the
// variable's own string. The literal case is small enough to inline.
func (in *Interp) expandWord(w *ast.Word) (string, error) {
	if w.Kind == ast.WordLit {
		return w.Text, nil
	}
	return in.expandRefs(w)
}

// expandRefs is expandWord for a word with variable references.
func (in *Interp) expandRefs(w *ast.Word) (string, error) {
	if w.Kind == ast.WordVar {
		if seg := &w.Segs[0]; seg.Var == token.VarNamed {
			return in.vars.get(seg.Sym), nil // lookupVar's common case, without the call
		}
		return in.lookupParam(&w.Segs[0])
	}
	var b strings.Builder
	for i := range w.Segs {
		seg := &w.Segs[i]
		switch seg.Kind {
		case token.SegLit:
			b.WriteString(seg.Text)
		case token.SegVar:
			v, err := in.lookupVar(seg)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		}
	}
	return b.String(), nil
}

// expandList expands a word list (command argv or loop alternatives)
// into one slice of fields. An unquoted word consisting of a single
// variable reference undergoes field splitting on whitespace (so
// `forany s in ${servers}` iterates the list); all other words expand
// to exactly one field, except that an unquoted word expanding to ""
// produces no field.
func (in *Interp) expandList(words []*ast.Word) ([]string, error) {
	return in.appendFields(make([]string, 0, len(words)), words)
}

// appendFields is expandList appending to dst. On an error it returns
// dst with the fields appended so far.
func (in *Interp) appendFields(dst []string, words []*ast.Word) ([]string, error) {
	for _, w := range words {
		s, err := in.expandWord(w)
		if err != nil {
			return dst, err
		}
		switch {
		case w.Quoted:
			dst = append(dst, s)
		case w.Kind == ast.WordVar && hasSpace(s):
			dst = append(dst, strings.Fields(s)...)
		case s != "":
			dst = append(dst, s)
		}
	}
	return dst, nil
}

// hasSpace reports whether strings.Fields would split s: whether s
// holds a rune unicode.IsSpace accepts. Without one the value is one
// field, or none when empty. ASCII, which is what variables hold, is
// looked up a byte at a time; the rest goes to unicode.IsSpace.
func hasSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if notPlain[s[i]] {
			return s[i] < utf8.RuneSelf || strings.IndexFunc(s[i:], unicode.IsSpace) >= 0
		}
	}
	return false
}

// notPlain marks the bytes hasSpace cannot pass over: unicode.IsSpace
// below utf8.RuneSelf, and every byte from it on, which starts or
// continues a rune to decode.
var notPlain = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || unicode.IsSpace(rune(c))
	}
	return t
}()
