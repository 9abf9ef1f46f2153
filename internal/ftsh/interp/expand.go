package interp

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/token"
)

// lookupVar resolves a variable reference, including the positional
// parameters $1..$9, $* (all args space-joined), and $# (arg count) of
// the current function frame. Unset variables expand to the empty
// string, as in the Bourne shell. Which of these a name is was decided
// by the parser (token.ClassifyVar).
func (in *Interp) lookupVar(seg *token.Segment) (string, error) {
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
	case token.VarBadPos:
		return "", fmt.Errorf("invalid positional parameter $%s", seg.Text)
	}
	return in.vars[seg.Text], nil
}

// expandWord expands a word to a single string (no splitting). A nil
// word expands to "". Only a word that mixes segments builds anything:
// a literal's text was put together by the parser, and a lone variable
// reference expands to the variable's own string.
func (in *Interp) expandWord(w *ast.Word) (string, error) {
	if w == nil {
		return "", nil
	}
	switch w.Kind {
	case ast.WordLit:
		return w.Text, nil
	case ast.WordVar:
		return in.lookupVar(&w.Segs[0])
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
		case w.Kind == ast.WordVar && strings.IndexFunc(s, unicode.IsSpace) >= 0:
			// The same predicate strings.Fields splits on: without a
			// match the value is one field, or none when empty.
			dst = append(dst, strings.Fields(s)...)
		case s != "":
			dst = append(dst, s)
		}
	}
	return dst, nil
}
