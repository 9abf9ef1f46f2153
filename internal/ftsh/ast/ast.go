// Package ast defines the syntax tree of the fault tolerant shell.
package ast

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/ftsh/token"
)

// Node is any syntax-tree node.
type Node interface {
	Pos() token.Pos
}

// Script is a parsed ftsh program.
type Script struct {
	Body *Block
}

// Pos implements Node.
func (s *Script) Pos() token.Pos { return s.Body.Pos() }

// Block is a sequence of statements — ftsh's "group". A group succeeds
// iff all of its statements succeed, stopping at the first failure.
type Block struct {
	StartPos token.Pos
	Stmts    []Stmt
}

// Pos implements Node.
func (b *Block) Pos() token.Pos { return b.StartPos }

// Stmt is any statement.
type Stmt interface {
	Node
	stmt()
}

// Word is a token.WORD carried into the tree.
type Word struct {
	WordPos token.Pos
	Segs    []token.Segment
	Raw     string
	// Text is the value of a WordLit, and Num that value as a number
	// when ParseNum accepts it (IsNum), so a literal operand is parsed
	// once, here.
	Text string
	Num  float64
	// Sym is the name a literal word spells, interned, where the word
	// names a command or a variable: the first word of a command, and
	// the target of a redirection to a variable. It is zero elsewhere,
	// and where the name is only built at run time.
	Sym    token.Sym
	Quoted bool
	// Kind is the shape NewWord resolved the word to.
	Kind  WordKind
	IsNum bool
}

// WordKind is the shape of a word, which decides how it is expanded.
type WordKind uint8

// Word shapes.
const (
	WordMixed WordKind = iota // several segments, a variable among them: concatenated
	WordLit                   // literal text only: Text is the value
	WordVar                   // one variable reference: its value, split into fields unless Quoted
)

// NewWord returns a resolved word: its shape is decided, every variable
// segment classified and its name interned (in place, in segs), and a
// numeric literal's value parsed here, once, so that expanding the word
// never parses or looks up anything by name. The parser builds every
// word through it and the interpreter relies on that.
func NewWord(pos token.Pos, segs []token.Segment, quoted bool, raw string) *Word {
	w := &Word{WordPos: pos, Segs: segs, Quoted: quoted, Raw: raw}
	refs := 0
	for i := range segs {
		if seg := &segs[i]; seg.Kind == token.SegVar {
			seg.Var, seg.Index = token.ClassifyVar(seg.Text)
			if seg.Var == token.VarNamed {
				seg.Sym = token.Intern(seg.Text)
			}
			refs++
		}
	}
	switch {
	case refs == 0:
		w.Kind = WordLit
		w.Text, _ = w.Lit()
		w.Num, w.IsNum = literalNum(w.Text)
	case len(segs) == 1:
		w.Kind = WordVar
	}
	return w
}

// literalNum is ParseNum for a literal word, which is seldom a number:
// a word whose first byte past an optional sign is not one that
// ParseFloat can start with (a digit, '.', or the i of inf or the n of
// nan) is refused without building ParseFloat's error.
func literalNum(s string) (float64, bool) {
	t := s
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" {
		return 0, false
	}
	switch c := t[0]; {
	case c >= '0' && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	return ParseNum(s)
}

// ParseNum is strconv.ParseFloat(s, 64), and whether it accepts s, with
// a short cut for what scripts count with: up to 15 plain decimal
// digits, which a float64 holds exactly. A sign, 1e3, 0x1p4 or Inf goes
// to ParseFloat.
func ParseNum(s string) (float64, bool) {
	if s == "" || len(s) > 15 {
		return parseFloat(s)
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return parseFloat(s)
		}
		n = n*10 + int64(c)
	}
	return float64(n), true
}

// parseFloat is ParseNum's way for what is not plain digits.
func parseFloat(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// Pos implements Node.
func (w *Word) Pos() token.Pos { return w.WordPos }

// Lit returns the word's literal text if it is purely literal, and
// whether it is.
func (w *Word) Lit() (string, bool) {
	if len(w.Segs) == 1 && w.Segs[0].Kind == token.SegLit {
		return w.Segs[0].Text, true
	}
	var b strings.Builder
	for _, s := range w.Segs {
		if s.Kind != token.SegLit {
			return "", false
		}
		b.WriteString(s.Text)
	}
	return b.String(), true
}

// Redir is an input/output redirection attached to a command.
type Redir struct {
	Op     token.Kind // GT, GTGT, LT, GTAMP, DASHGT, DASHGTGT, DASHLT, DASHGTAMP
	Target *Word      // file name or variable name
}

// ToVar reports whether the redirection targets a shell variable.
func (r *Redir) ToVar() bool {
	switch r.Op {
	case token.DASHGT, token.DASHGTGT, token.DASHLT, token.DASHGTAMP:
		return true
	}
	return false
}

// CommandStmt invokes an external command, builtin, or shell function.
type CommandStmt struct {
	Words  []*Word
	Redirs []*Redir
}

func (c *CommandStmt) stmt() {}

// Pos implements Node.
func (c *CommandStmt) Pos() token.Pos { return c.Words[0].Pos() }

// AssignStmt sets a shell variable: `name=value`. The value extends to
// the end of the line; multiple words are joined with single spaces, so
// `servers=xxx yyy zzz` assigns a splittable list.
type AssignStmt struct {
	NamePos token.Pos
	Name    string
	Sym     token.Sym // Name interned
	Values  []*Word   // may be empty for `name=`
}

func (a *AssignStmt) stmt() {}

// Pos implements Node.
func (a *AssignStmt) Pos() token.Pos { return a.NamePos }

// LimitSpec is a try budget: `for 30 minutes`, `5 times`, or
// `for 1 hour or 3 times`, optionally with a fixed retry interval:
// `try for 1 hour every 5 minutes`.
type LimitSpec struct {
	Time     time.Duration // 0 = unbounded
	Attempts int           // 0 = unbounded
	// Every, when positive, replaces the default randomized exponential
	// backoff with a fixed delay between attempts — explicit user
	// control over retry pacing.
	Every time.Duration
	// HasTime/HasAttempts record which clauses appeared in the source.
	HasTime, HasAttempts bool
}

// TryStmt is the heart of ftsh: attempt the body repeatedly with
// exponential backoff within the limit; optionally catch exhaustion.
type TryStmt struct {
	TryPos token.Pos
	Limit  LimitSpec
	Body   *Block
	Catch  *Block // nil if no catch clause
}

func (t *TryStmt) stmt() {}

// Pos implements Node.
func (t *TryStmt) Pos() token.Pos { return t.TryPos }

// ForanyStmt tries the body once per alternative until one succeeds.
type ForanyStmt struct {
	AnyPos token.Pos
	Var    string
	Sym    token.Sym // Var interned
	List   []*Word
	Body   *Block
}

func (f *ForanyStmt) stmt() {}

// Pos implements Node.
func (f *ForanyStmt) Pos() token.Pos { return f.AnyPos }

// ForallStmt runs the body for every alternative in parallel; it
// succeeds iff every branch succeeds, and a branch failure aborts the
// outstanding branches.
type ForallStmt struct {
	AllPos token.Pos
	Var    string
	Sym    token.Sym // Var interned
	List   []*Word
	Body   *Block
}

func (f *ForallStmt) stmt() {}

// Pos implements Node.
func (f *ForallStmt) Pos() token.Pos { return f.AllPos }

// ForStmt runs the body sequentially for every item; it fails at the
// first failing iteration.
type ForStmt struct {
	ForPos token.Pos
	Var    string
	Sym    token.Sym // Var interned
	List   []*Word
	Body   *Block
}

func (f *ForStmt) stmt() {}

// Pos implements Node.
func (f *ForStmt) Pos() token.Pos { return f.ForPos }

// CompareOp is a dotted comparison operator.
type CompareOp string

// Cond is a condition: a comparison of two words, a literal
// `true`/`false`, or a unary file test.
type Cond struct {
	CondPos token.Pos
	// Literal conditions: `while true`.
	IsLit bool
	Lit   bool
	// Comparison conditions: `${n} .lt. 1000`. For the unary file test
	// `.exists. name` (§6: "the presence of files named in the
	// arguments can be tested before execution"), Left is nil and Op is
	// ".exists.".
	Left  *Word
	Op    CompareOp
	Right *Word
}

// Pos implements Node.
func (c *Cond) Pos() token.Pos { return c.CondPos }

// IfStmt is `if <cond> ... elif <cond> ... else ... end`.
type IfStmt struct {
	IfPos token.Pos
	Cond  *Cond
	Then  *Block
	Elifs []ElifClause
	Else  *Block // nil if absent
}

// ElifClause is one `elif` arm.
type ElifClause struct {
	Cond *Cond
	Body *Block
}

func (i *IfStmt) stmt() {}

// Pos implements Node.
func (i *IfStmt) Pos() token.Pos { return i.IfPos }

// WhileStmt runs the body while the condition holds; a body failure
// fails the loop.
type WhileStmt struct {
	WhilePos token.Pos
	Cond     *Cond
	Body     *Block
}

func (w *WhileStmt) stmt() {}

// Pos implements Node.
func (w *WhileStmt) Pos() token.Pos { return w.WhilePos }

// FailureStmt raises an untyped failure, like `throw` (§4).
type FailureStmt struct {
	FailPos token.Pos
}

func (f *FailureStmt) stmt() {}

// Pos implements Node.
func (f *FailureStmt) Pos() token.Pos { return f.FailPos }

// SuccessStmt terminates the enclosing function or script successfully.
type SuccessStmt struct {
	OKPos token.Pos
}

func (s *SuccessStmt) stmt() {}

// Pos implements Node.
func (s *SuccessStmt) Pos() token.Pos { return s.OKPos }

// FunctionStmt defines a named function; invocation looks like a
// command. Arguments bind to $1..$9 and $* inside the body.
type FunctionStmt struct {
	FuncPos token.Pos
	Name    string
	Sym     token.Sym // Name interned
	Body    *Block
}

func (f *FunctionStmt) stmt() {}

// Pos implements Node.
func (f *FunctionStmt) Pos() token.Pos { return f.FuncPos }
