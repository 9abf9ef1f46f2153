// Package parser builds an ftsh syntax tree from source text.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/lexer"
	"repro/internal/ftsh/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses an ftsh script. The tree it returns is resolved — every
// word is an ast.NewWord, its shape and variable references decided,
// and every name the source spells (a variable, a loop variable, a
// function, a literal command head or variable redirection target)
// interned as a token.Sym — and is never written again, so one tree
// may be run any number of times, by any number of interpreters at
// once.
func Parse(src string) (*ast.Script, error) {
	toks, err := lexer.All(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	body, err := p.stmts(atEOF)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != token.EOF {
		return nil, p.errf("unexpected %s", p.cur().Kind)
	}
	return &ast.Script{Body: body}, nil
}

type parser struct {
	toks []token.Token
	i    int
}

func (p *parser) cur() token.Token  { return p.toks[p.i] }
func (p *parser) next() token.Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipNewlines() {
	for p.cur().Kind == token.NEWLINE {
		p.next()
	}
}

// endStmt consumes the separator after a statement.
func (p *parser) endStmt() error {
	switch p.cur().Kind {
	case token.NEWLINE:
		p.next()
		return nil
	case token.EOF:
		return nil
	default:
		return p.errf("expected newline after statement, found %s %q", p.cur().Kind, p.cur().Text)
	}
}

// terminator classifies the bare words that close a block.
type terminator func(token.Token) (stop bool, err error)

func atEOF(t token.Token) (bool, error) {
	return t.Kind == token.EOF, nil
}

// until returns a terminator that stops at any of the named keywords and
// rejects EOF.
func until(kws ...string) terminator {
	return func(t token.Token) (bool, error) {
		if t.Kind == token.EOF {
			return false, fmt.Errorf("unexpected end of file, expected %s", strings.Join(kws, " or "))
		}
		for _, kw := range kws {
			if t.IsBare(kw) {
				return true, nil
			}
		}
		return false, nil
	}
}

// stmts parses statements until the terminator matches; it does not
// consume the terminating token.
func (p *parser) stmts(stop terminator) (*ast.Block, error) {
	blk := &ast.Block{StartPos: p.cur().Pos}
	for {
		p.skipNewlines()
		ok, err := stop(p.cur())
		if err != nil {
			return nil, &Error{Pos: p.cur().Pos, Msg: err.Error()}
		}
		if ok {
			return blk, nil
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, st)
		if err := p.endStmt(); err != nil {
			// Allow block terminators directly after a statement's last
			// word only when separated by newline; anything else is a
			// genuine error.
			if ok2, _ := stop(p.cur()); !ok2 {
				return nil, err
			}
		}
	}
}

// stmt parses one statement.
func (p *parser) stmt() (ast.Stmt, error) {
	t := p.cur()
	if t.Kind != token.WORD {
		return nil, p.errf("expected command, found %s", t.Kind)
	}
	switch {
	case t.IsBare("try"):
		return p.tryStmt()
	case t.IsBare("forany"):
		return p.loopStmt("forany")
	case t.IsBare("forall"):
		return p.loopStmt("forall")
	case t.IsBare("for"):
		return p.loopStmt("for")
	case t.IsBare("while"):
		return p.whileStmt()
	case t.IsBare("if"):
		return p.ifStmt()
	case t.IsBare("function"):
		return p.functionStmt()
	case t.IsBare("failure"):
		pos := p.next().Pos
		return &ast.FailureStmt{FailPos: pos}, nil
	case t.IsBare("success"):
		pos := p.next().Pos
		return &ast.SuccessStmt{OKPos: pos}, nil
	case t.IsBare("end"), t.IsBare("catch"), t.IsBare("else"), t.IsBare("elif"), t.IsBare("in"), t.IsBare("or"):
		return nil, p.errf("unexpected keyword %q", t.Text)
	}
	if name, value, ok := splitAssign(t); ok {
		p.next()
		st := &ast.AssignStmt{NamePos: t.Pos, Name: name, Sym: token.Intern(name)}
		if value != nil {
			st.Values = append(st.Values, value)
		}
		// The value extends to the end of the line.
		for p.cur().Kind == token.WORD {
			w, err := p.word()
			if err != nil {
				return nil, err
			}
			st.Values = append(st.Values, w)
		}
		return st, nil
	}
	return p.commandStmt()
}

// splitAssign recognizes `name=value` words. The `name=` prefix must be
// unquoted (`"a=b"` is a command, `a="b c"` an assignment).
func splitAssign(t token.Token) (string, *ast.Word, bool) {
	if len(t.Segs) == 0 || t.Segs[0].Kind != token.SegLit || t.Segs[0].Quoted {
		return "", nil, false
	}
	lit := t.Segs[0].Text
	eq := strings.IndexByte(lit, '=')
	if eq <= 0 {
		return "", nil, false
	}
	name := lit[:eq]
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		digit := c >= '0' && c <= '9'
		if !alpha && !(i > 0 && digit) {
			return "", nil, false
		}
	}
	var segs []token.Segment
	if rest := lit[eq+1:]; rest != "" {
		segs = append(segs, token.Segment{Kind: token.SegLit, Text: rest, Quoted: t.Segs[0].Quoted})
	}
	segs = append(segs, t.Segs[1:]...)
	if len(segs) == 0 {
		return name, nil, true // `name=` clears the variable
	}
	return name, ast.NewWord(t.Pos, segs, t.Quoted, t.Text), true
}

// word converts the current WORD token into an ast.Word.
func (p *parser) word() (*ast.Word, error) {
	t := p.cur()
	if t.Kind != token.WORD {
		return nil, p.errf("expected word, found %s", t.Kind)
	}
	p.next()
	return ast.NewWord(t.Pos, t.Segs, t.Quoted, t.Text), nil
}

// commandStmt parses `word+ {redir}`, with redirections allowed anywhere
// after the first word.
func (p *parser) commandStmt() (ast.Stmt, error) {
	cmd := &ast.CommandStmt{}
	w, err := p.word()
	if err != nil {
		return nil, err
	}
	cmd.Words = append(cmd.Words, w)
	if w.Kind == ast.WordLit && w.Text != "" {
		// A non-empty literal is the first field, whatever follows.
		w.Sym = token.Intern(w.Text)
	}
	for {
		switch p.cur().Kind {
		case token.WORD:
			w, err := p.word()
			if err != nil {
				return nil, err
			}
			cmd.Words = append(cmd.Words, w)
		case token.GT, token.GTGT, token.LT, token.GTAMP,
			token.DASHGT, token.DASHGTGT, token.DASHLT, token.DASHGTAMP:
			op := p.next().Kind
			target, err := p.word()
			if err != nil {
				return nil, fmt.Errorf("%s target: %w", op, err)
			}
			r := &ast.Redir{Op: op, Target: target}
			if r.ToVar() && target.Kind == ast.WordLit {
				target.Sym = token.Intern(target.Text)
			}
			cmd.Redirs = append(cmd.Redirs, r)
		default:
			return cmd, nil
		}
	}
}

// bareWord consumes an unquoted literal word and returns its text.
func (p *parser) bareWord(what string) (string, token.Pos, error) {
	t := p.cur()
	if t.Kind != token.WORD || t.Quoted || len(t.Segs) != 1 ||
		t.Segs[0].Kind != token.SegLit || t.Segs[0].Quoted {
		return "", t.Pos, p.errf("expected %s", what)
	}
	p.next()
	return t.Segs[0].Text, t.Pos, nil
}

// number consumes a numeric literal word.
func (p *parser) number() (float64, error) {
	s, _, err := p.bareWord("number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, p.errf("invalid number %q", s)
	}
	return v, nil
}

// timeUnits maps unit words to durations.
var timeUnits = map[string]time.Duration{
	"ms": time.Millisecond, "millisecond": time.Millisecond, "milliseconds": time.Millisecond,
	"second": time.Second, "seconds": time.Second, "sec": time.Second, "secs": time.Second, "s": time.Second,
	"minute": time.Minute, "minutes": time.Minute, "min": time.Minute, "mins": time.Minute, "m": time.Minute,
	"hour": time.Hour, "hours": time.Hour, "h": time.Hour,
	"day": 24 * time.Hour, "days": 24 * time.Hour,
}

// duration parses `N <unit>`.
func (p *parser) duration() (time.Duration, error) {
	n, err := p.number()
	if err != nil {
		return 0, err
	}
	u, _, err := p.bareWord("time unit (seconds, minutes, hours, ...)")
	if err != nil {
		return 0, err
	}
	d, ok := timeUnits[u]
	if !ok {
		return 0, p.errf("unknown time unit %q", u)
	}
	return time.Duration(n * float64(d)), nil
}

// limitSpec parses a try budget:
//
//	for N <unit> [or M times]
//	N times [or for N <unit>]
func (p *parser) limitSpec() (ast.LimitSpec, error) {
	var lim ast.LimitSpec
	parseClause := func() error {
		if p.cur().IsBare("for") {
			if lim.HasTime {
				return p.errf("duplicate time limit in try")
			}
			p.next()
			d, err := p.duration()
			if err != nil {
				return err
			}
			if d <= 0 {
				return p.errf("try time limit must be positive")
			}
			lim.Time = d
			lim.HasTime = true
			return nil
		}
		// Attempt clause: `N times`.
		if lim.HasAttempts {
			return p.errf("duplicate attempt limit in try")
		}
		n, err := p.number()
		if err != nil {
			return err
		}
		kw, _, err := p.bareWord("'times'")
		if err != nil {
			return err
		}
		if kw != "times" && kw != "time" {
			return p.errf("expected 'times' after attempt count, found %q", kw)
		}
		if n < 1 {
			return p.errf("try attempt limit must be at least 1")
		}
		lim.Attempts = int(n)
		lim.HasAttempts = true
		return nil
	}
	if err := parseClause(); err != nil {
		return lim, err
	}
	if p.cur().IsBare("or") {
		p.next()
		if err := parseClause(); err != nil {
			return lim, err
		}
	}
	// Optional fixed retry interval: `every 30 seconds`.
	if p.cur().IsBare("every") {
		p.next()
		d, err := p.duration()
		if err != nil {
			return lim, err
		}
		if d <= 0 {
			return lim, p.errf("try retry interval must be positive")
		}
		lim.Every = d
	}
	return lim, nil
}

func (p *parser) tryStmt() (ast.Stmt, error) {
	pos := p.next().Pos // 'try'
	lim, err := p.limitSpec()
	if err != nil {
		return nil, err
	}
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmts(until("catch", "end"))
	if err != nil {
		return nil, err
	}
	st := &ast.TryStmt{TryPos: pos, Limit: lim, Body: body}
	if p.cur().IsBare("catch") {
		p.next()
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		st.Catch, err = p.stmts(until("end"))
		if err != nil {
			return nil, err
		}
	}
	p.next() // 'end'
	return st, nil
}

// loopStmt parses forany/forall/for, which share the shape
// `<kw> VAR in word... NEWLINE stmts end`.
func (p *parser) loopStmt(kw string) (ast.Stmt, error) {
	pos := p.next().Pos
	name, _, err := p.bareWord("loop variable name")
	if err != nil {
		return nil, err
	}
	if !p.cur().IsBare("in") {
		return nil, p.errf("expected 'in' after %s variable", kw)
	}
	p.next()
	var list []*ast.Word
	for p.cur().Kind == token.WORD {
		w, err := p.word()
		if err != nil {
			return nil, err
		}
		list = append(list, w)
	}
	if len(list) == 0 {
		return nil, p.errf("%s requires at least one alternative", kw)
	}
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmts(until("end"))
	if err != nil {
		return nil, err
	}
	p.next() // 'end'
	sym := token.Intern(name)
	switch kw {
	case "forany":
		return &ast.ForanyStmt{AnyPos: pos, Var: name, Sym: sym, List: list, Body: body}, nil
	case "forall":
		return &ast.ForallStmt{AllPos: pos, Var: name, Sym: sym, List: list, Body: body}, nil
	default:
		return &ast.ForStmt{ForPos: pos, Var: name, Sym: sym, List: list, Body: body}, nil
	}
}

// cond parses `true`, `false`, or `word OP word`.
func (p *parser) cond() (*ast.Cond, error) {
	pos := p.cur().Pos
	if p.cur().IsBare("true") {
		p.next()
		return &ast.Cond{CondPos: pos, IsLit: true, Lit: true}, nil
	}
	if p.cur().IsBare("false") {
		p.next()
		return &ast.Cond{CondPos: pos, IsLit: true, Lit: false}, nil
	}
	if p.cur().IsBare(".exists.") {
		p.next()
		target, err := p.word()
		if err != nil {
			return nil, err
		}
		return &ast.Cond{CondPos: pos, Op: ".exists.", Right: target}, nil
	}
	left, err := p.word()
	if err != nil {
		return nil, err
	}
	opWord, opPos, err := p.bareWord("comparison operator (.lt. .gt. .le. .ge. .eq. .ne. .eql. .neql.)")
	if err != nil {
		return nil, err
	}
	if !token.CompareOps[opWord] {
		return nil, &Error{Pos: opPos, Msg: fmt.Sprintf("unknown comparison operator %q", opWord)}
	}
	right, err := p.word()
	if err != nil {
		return nil, err
	}
	return &ast.Cond{CondPos: pos, Left: left, Op: ast.CompareOp(opWord), Right: right}, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	pos := p.next().Pos // 'if'
	c, err := p.cond()
	if err != nil {
		return nil, err
	}
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	then, err := p.stmts(until("elif", "else", "end"))
	if err != nil {
		return nil, err
	}
	st := &ast.IfStmt{IfPos: pos, Cond: c, Then: then}
	for p.cur().IsBare("elif") {
		p.next()
		ec, err := p.cond()
		if err != nil {
			return nil, err
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		body, err := p.stmts(until("elif", "else", "end"))
		if err != nil {
			return nil, err
		}
		st.Elifs = append(st.Elifs, ast.ElifClause{Cond: ec, Body: body})
	}
	if p.cur().IsBare("else") {
		p.next()
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		st.Else, err = p.stmts(until("end"))
		if err != nil {
			return nil, err
		}
	}
	p.next() // 'end'
	return st, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	pos := p.next().Pos // 'while'
	c, err := p.cond()
	if err != nil {
		return nil, err
	}
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmts(until("end"))
	if err != nil {
		return nil, err
	}
	p.next() // 'end'
	return &ast.WhileStmt{WhilePos: pos, Cond: c, Body: body}, nil
}

func (p *parser) functionStmt() (ast.Stmt, error) {
	pos := p.next().Pos // 'function'
	name, _, err := p.bareWord("function name")
	if err != nil {
		return nil, err
	}
	if token.Keywords[name] {
		return nil, p.errf("cannot use keyword %q as function name", name)
	}
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmts(until("end"))
	if err != nil {
		return nil, err
	}
	p.next() // 'end'
	return &ast.FunctionStmt{FuncPos: pos, Name: name, Sym: token.Intern(name), Body: body}, nil
}
