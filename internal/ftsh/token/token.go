// Package token defines the lexical tokens of the fault tolerant shell
// (ftsh) described in §4 of the paper and in UW-CS-TR-1476.
package token

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Kind identifies a token class.
type Kind int

// Token kinds. Keywords are recognized by the parser from WORD tokens at
// command position, so that `echo try` still works; only structural
// punctuation is distinguished lexically.
const (
	EOF     Kind = iota
	NEWLINE      // statement separator (also ';')
	WORD         // a word, possibly containing variable references

	// Redirections to files.
	GT    // >   stdout to file (truncate)
	GTGT  // >>  stdout to file (append)
	LT    // <   stdin from file
	GTAMP // >&  stdout+stderr to file

	// Redirections to shell variables (§4: "a dash prefixes the arrow").
	DASHGT    // ->   stdout to variable
	DASHGTGT  // ->>  stdout appended to variable
	DASHLT    // -<   stdin from variable
	DASHGTAMP // ->&  stdout+stderr to variable
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of file"
	case NEWLINE:
		return "newline"
	case WORD:
		return "word"
	case GT:
		return ">"
	case GTGT:
		return ">>"
	case LT:
		return "<"
	case GTAMP:
		return ">&"
	case DASHGT:
		return "->"
	case DASHGTGT:
		return "->>"
	case DASHLT:
		return "-<"
	case DASHGTAMP:
		return "->&"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Pos locates a token in its source for error messages.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// String renders line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Compare orders positions as the source reads: by line, then by column
// (as text, line 10 would sort before line 2).
func (p Pos) Compare(q Pos) int {
	return cmp.Or(cmp.Compare(p.Line, q.Line), cmp.Compare(p.Col, q.Col))
}

// SegKind distinguishes the parts of a WORD.
type SegKind int

// Word segment kinds.
const (
	SegLit SegKind = iota // literal text
	SegVar                // ${name} or $name reference
)

// Segment is one piece of a word: literal text or a variable reference.
type Segment struct {
	Kind SegKind
	Text string // literal text, or the variable name
	// Quoted marks literal text that came from inside quotes. It
	// matters for assignment and keyword recognition (`"a=b"` is a
	// command, `a="b c"` an assignment) and for faithful printing.
	Quoted bool
	// Var, Sym and Index say what a SegVar's name refers to. The
	// parser fills them in (the lexer leaves them zero), so that nothing
	// has to read the name again when the word is expanded.
	Var   VarKind
	Sym   Sym // the variable of a VarNamed, interned
	Index int // the parameter number of a VarPos
}

// VarKind is what a variable name refers to.
type VarKind uint8

// Variable reference kinds.
const (
	VarNamed  VarKind = iota // an ordinary shell variable
	VarArgs                  // $*: the positional parameters, space-joined
	VarCount                 // $#: how many positional parameters there are
	VarPos                   // ${n}, n >= 1: positional parameter n
	VarBadPos                // ${0}, ${-1}: a number below 1, an error when expanded
)

// ClassifyVar decides what a variable name refers to. A name is
// positional exactly when strconv.Atoi accepts it, so ${+2} and ${007}
// are, while ${1x}, ${ 1} and a digit string too long for an int are
// ordinary names.
func ClassifyVar(name string) (kind VarKind, index int) {
	switch name {
	case "*":
		return VarArgs, 0
	case "#":
		return VarCount, 0
	case "":
		return VarNamed, 0
	}
	// Atoi builds an error value for every name it refuses, and it
	// refuses every name that does not start with a sign or a digit.
	if c := name[0]; c != '+' && c != '-' && (c < '0' || c > '9') {
		return VarNamed, 0
	}
	n, err := strconv.Atoi(name)
	switch {
	case err != nil:
		return VarNamed, 0
	case n < 1:
		return VarBadPos, 0
	}
	return VarPos, n
}

// Token is a lexical token. WORD tokens carry their segment breakdown and
// quoting information.
type Token struct {
	Kind Kind
	Pos  Pos
	// Text is the raw token text, for diagnostics.
	Text string
	// Segs is the segment breakdown of a WORD.
	Segs []Segment
	// Quoted marks a WORD any part of which was quoted; quoted words are
	// never keywords and never split after expansion.
	Quoted bool
}

// IsBare reports whether the token is an unquoted WORD exactly equal to s
// — the test used for keyword recognition.
func (t Token) IsBare(s string) bool {
	return t.Kind == WORD && !t.Quoted && len(t.Segs) == 1 &&
		t.Segs[0].Kind == SegLit && !t.Segs[0].Quoted && t.Segs[0].Text == s
}

// Keywords of the language, recognized at command position.
var Keywords = map[string]bool{
	"try": true, "catch": true, "end": true,
	"forany": true, "forall": true, "for": true, "while": true,
	"in": true, "if": true, "elif": true, "else": true,
	"function": true, "failure": true, "success": true,
	"return": true,
}

// CompareOps are the dotted comparison operators of ftsh conditions.
// Numeric: .lt. .gt. .le. .ge. .eq. .ne. — String: .eql. .neql.
var CompareOps = map[string]bool{
	".lt.": true, ".gt.": true, ".le.": true, ".ge.": true,
	".eq.": true, ".ne.": true, ".eql.": true, ".neql.": true,
}

// Sym is an interned name: a variable, a function or a command. The
// parser resolves every name it can see to a Sym, so that running a
// statement compares and indexes small integers instead of hashing
// strings. Two names are the same Sym exactly when they are the same
// string. The zero Sym is no name: a name the parser could not see,
// because it is built at run time.
//
// The table is process-wide and only grows; an interpreter keeps its
// variables and functions per Sym for the names it uses, so what other
// scripts interned does not cost it anything.
type Sym uint32

var symtab struct {
	sync.Mutex
	ids map[string]Sym // Syms count from 1 in interning order
}

// Intern returns the Sym of name, adding name to the table if it is
// new.
func Intern(name string) Sym {
	symtab.Lock()
	defer symtab.Unlock()
	s, ok := symtab.ids[name]
	if !ok {
		if symtab.ids == nil {
			symtab.ids = make(map[string]Sym)
		}
		s = Sym(len(symtab.ids) + 1)
		// A name is often a substring of a whole script, which the
		// table must not keep alive.
		symtab.ids[strings.Clone(name)] = s
	}
	return s
}

// Lookup returns the Sym of name if name has been interned. A name that
// was never interned names nothing that was ever set or defined.
func Lookup(name string) (Sym, bool) {
	symtab.Lock()
	defer symtab.Unlock()
	s, ok := symtab.ids[name]
	return s, ok
}

// Interned reports how many names the table holds.
func Interned() int {
	symtab.Lock()
	defer symtab.Unlock()
	return len(symtab.ids)
}
