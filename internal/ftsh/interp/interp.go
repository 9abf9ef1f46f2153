// Package interp executes ftsh syntax trees.
//
// The interpreter realizes the paper's semantics: a statement either
// succeeds or fails (untyped), groups stop at the first failure, try
// repeats its body with randomized exponential backoff inside a time
// and/or attempt budget, forany seeks one succeeding alternative, and
// forall runs alternatives in parallel, aborting the rest when one
// fails. All timing is delegated to a core.Runtime, so scripts run
// identically against the wall clock and the discrete-event simulator.
package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/parser"
	"repro/internal/ftsh/token"
	"repro/internal/trace"
)

// Runner executes external commands on behalf of the interpreter.
// internal/proc provides both a real (os/exec) and a simulated
// implementation. Dispatch order is shell-like: user-defined functions
// shadow builtins, which shadow the Runner.
type Runner interface {
	// Run executes the command and returns nil on success (exit code
	// zero). It must honor ctx: when the enclosing try budget expires
	// the runner is expected to terminate the command and everything it
	// spawned, mirroring ftsh's process-session kill.
	Run(ctx context.Context, rt core.Runtime, cmd *Command) error
}

// Command is a fully expanded external command invocation. Its streams
// and its Args slice are the runner's until Run returns, and not after:
// the interpreter reuses variable-capture buffers, and Args is a window
// on the interpreter's argv stack. A runner that keeps the arguments
// copies them (the strings themselves are immutable).
type Command struct {
	Name   string
	Args   []string
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// FS abstracts file redirection targets so simulations need not touch
// the real filesystem. OSFS adapts the host filesystem.
type FS interface {
	OpenRead(name string) (io.ReadCloser, error)
	OpenWrite(name string, appendTo bool) (io.WriteCloser, error)
}

// Config assembles an interpreter.
type Config struct {
	// Runner executes external commands; required.
	Runner Runner
	// Runtime supplies time, randomness, and parallelism; required.
	Runtime core.Runtime
	// Stdout and Stderr receive unredirected command output. Nil means
	// discard.
	Stdout, Stderr io.Writer
	// FS resolves file redirections. Nil forbids file redirection.
	FS FS
	// Log, if non-nil, receives a trace of command executions, retries,
	// and backoffs ("ftsh keeps a log of varying detail", §4).
	Log io.Writer
	// ShuffleForany randomizes forany order per execution, breaking herd
	// behaviour between identical clients.
	ShuffleForany bool
	// MaxForall bounds how many forall branches run at once; branches
	// beyond the bound queue for admission. Zero means unlimited. (§4:
	// "the creation of processes must be governed by an Ethernet-like
	// algorithm similar to that of try".)
	MaxForall int
	// Backoff overrides try's paper-default backoff parameters. The
	// struct is copied per try.
	Backoff *core.Backoff
	// Trace, when non-nil, records every try's attempt/backoff timeline
	// and wraps try/forany/forall constructs in spans named by script
	// position. Forall branches trace on forked threads of the same
	// client.
	Trace *trace.Client
}

// Interp executes scripts. An Interp carries variable state between
// Run calls, like an interactive shell session.
type Interp struct {
	cfg       Config
	vars      varTable
	fns       map[token.Sym]*ast.FunctionStmt // nil until the first definition
	fnsShared bool                            // fns is a forall parent's: copy it before defining
	args      []string                        // positional parameters of the current function frame
	argv      []string                        // argv stack: every running command's fields (see pushArgv)
	depth     int                             // current user-function call depth
	stats     *Stats

	stdio cmdIO           // what a command without redirections reads and writes
	bufs  []*bytes.Buffer // variable-capture buffers, the first ncap in use (see captureBuf)
	ncap  int
	line  []byte // the last line a builtin printed, kept for its capacity
}

// maxCallDepth bounds user-function call nesting so unbounded recursion
// fails the script like any other error instead of overflowing the Go
// stack.
const maxCallDepth = 200

// New returns an interpreter.
func New(cfg Config) *Interp {
	if cfg.Runner == nil {
		panic("interp: Config.Runner is required")
	}
	if cfg.Runtime == nil {
		panic("interp: Config.Runtime is required")
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	return &Interp{
		cfg:   cfg,
		stats: newStats(),
		stdio: cmdIO{stdin: noInput{}, stdout: cfg.Stdout, stderr: cfg.Stderr},
	}
}

// Stats returns the interpreter's execution record (§4's post-mortem
// analysis): per-command run/failure counts, per-try attempt and
// exhaustion counts with accumulated backoff, and forany winner
// frequencies. It accumulates across Run calls.
func (in *Interp) Stats() *Stats { return in.stats }

// errSuccess unwinds a `success` statement to the enclosing function or
// script boundary.
var errSuccess = errors.New("ftsh: success")

// PosError wraps a runtime failure with its script position.
type PosError struct {
	Pos token.Pos
	Err error
}

// Error implements the error interface.
func (e *PosError) Error() string { return fmt.Sprintf("%s: %v", e.Pos, e.Err) }

// Unwrap exposes the cause.
func (e *PosError) Unwrap() error { return e.Err }

// wrapPos attaches pos to err unless the chain already carries a script
// position: the innermost position names the statement that actually
// failed, and re-wrapping at every enclosing call frame would bury it
// (a 200-deep recursion would prefix 200 call-site positions).
func wrapPos(pos token.Pos, err error) error {
	if hasPos(err) {
		return err
	}
	return &PosError{Pos: pos, Err: err}
}

// hasPos reports whether err's chain holds a *PosError, walking the
// Unwrap tree as errors.As does — but without the escaping target that
// errors.As would allocate for every failing command. (No error type of
// this module has an As method for errors.As to consult.)
func hasPos(err error) bool {
	for err != nil {
		switch e := err.(type) {
		case *PosError:
			return true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, sub := range e.Unwrap() {
				if hasPos(sub) {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// Var returns the value of a shell variable ("" if unset). A name no
// script or SetVar has interned was never set.
func (in *Interp) Var(name string) string {
	sym, _ := token.Lookup(name)
	return in.vars.get(sym)
}

// SetVar sets a shell variable, e.g. to parameterize a script.
func (in *Interp) SetVar(name, value string) { in.vars.set(token.Intern(name), value) }

// SetArgs sets the script-level positional parameters ${1}..${9}, $*,
// and $#. Function calls shadow them for the duration of the call.
func (in *Interp) SetArgs(args []string) { in.args = args }

// RunSource parses and runs an ftsh script.
func (in *Interp) RunSource(ctx context.Context, src string) error {
	s, err := parser.Parse(src)
	if err != nil {
		return err
	}
	return in.Run(ctx, s)
}

// Run executes a parsed script. It returns nil if the script succeeded.
// The tree must be resolved, as every tree from parser.Parse is (see
// ast.NewWord); Run only reads it, so interpreters may share one.
func (in *Interp) Run(ctx context.Context, s *ast.Script) error {
	err := in.execBlock(ctx, s.Body)
	if errors.Is(err, errSuccess) {
		return nil
	}
	return err
}

// logf writes one line to the log. Callers test cfg.Log for nil first,
// so that a script run without a log does not build the arguments.
func (in *Interp) logf(format string, args ...any) {
	fmt.Fprintf(in.cfg.Log, "[%s] ", in.cfg.Runtime.Now().Format("15:04:05.000"))
	fmt.Fprintf(in.cfg.Log, format, args...)
	fmt.Fprintln(in.cfg.Log)
}

// spanName names a construct's trace span by script position, or is
// empty — no span — when there is no tracer to record it.
func (in *Interp) spanName(construct string, pos token.Pos) string {
	if in.cfg.Trace == nil {
		return ""
	}
	return construct + "@" + pos.String()
}

// execBlock runs a group: sequential, stopping at the first failure.
func (in *Interp) execBlock(ctx context.Context, b *ast.Block) error {
	for _, st := range b.Stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := in.execStmt(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(ctx context.Context, st ast.Stmt) error {
	switch st := st.(type) {
	case *ast.CommandStmt:
		return in.execCommand(ctx, st)
	case *ast.AssignStmt:
		return in.execAssign(st)
	case *ast.TryStmt:
		return in.execTry(ctx, st)
	case *ast.ForanyStmt:
		return in.execForany(ctx, st)
	case *ast.ForallStmt:
		return in.execForall(ctx, st)
	case *ast.ForStmt:
		return in.execFor(ctx, st)
	case *ast.WhileStmt:
		return in.execWhile(ctx, st)
	case *ast.IfStmt:
		return in.execIf(ctx, st)
	case *ast.FailureStmt:
		return &PosError{Pos: st.Pos(), Err: core.ErrFailure}
	case *ast.SuccessStmt:
		return errSuccess
	case *ast.FunctionStmt:
		in.define(st)
		return nil
	default:
		return fmt.Errorf("interp: unknown statement %T", st)
	}
}

// execAssign sets a variable to its values, expanded and space-joined.
func (in *Interp) execAssign(st *ast.AssignStmt) error {
	var val string
	for i, w := range st.Values {
		part, err := in.expandWord(w)
		if err != nil {
			return &PosError{Pos: st.Pos(), Err: err}
		}
		if i == 0 {
			val = part
		} else {
			val += " " + part
		}
	}
	in.vars.set(st.Sym, val)
	return nil
}

// execTry implements the try construct on top of core.Try.
func (in *Interp) execTry(ctx context.Context, st *ast.TryStmt) error {
	lim := core.Limit{Duration: st.Limit.Time, Attempts: st.Limit.Attempts}
	sawSuccess := false
	ts := in.stats.beginTry(st.Pos())
	obs := &tryObserver{rt: in.cfg.Runtime, ts: ts, stats: in.stats}
	cfg := core.TryConfig{Observer: obs, Trace: in.cfg.Trace, Span: in.spanName("try", st.Pos())}
	switch {
	case st.Limit.Every > 0:
		// `every N`: a fixed interval replaces the exponential backoff.
		cfg.Backoff = &core.Backoff{
			Base: st.Limit.Every, Cap: st.Limit.Every,
			Factor: 1, RandMin: 1, RandMax: 1,
		}
	case in.cfg.Backoff != nil:
		bo := *in.cfg.Backoff
		cfg.Backoff = &bo
	}
	attempt := 0
	err := core.Try(ctx, in.cfg.Runtime, lim, cfg, func(ctx context.Context) error {
		attempt++
		if attempt > 1 && in.cfg.Log != nil {
			in.logf("try %s: attempt %d", st.Pos(), attempt)
		}
		err := in.execBlock(ctx, st.Body)
		if errors.Is(err, errSuccess) {
			sawSuccess = true
			return nil
		}
		if err != nil && in.cfg.Log != nil {
			in.logf("try %s: attempt %d failed: %v", st.Pos(), attempt, err)
		}
		return err
	})
	obs.finish()
	if sawSuccess && err == nil {
		return errSuccess
	}
	var ex *core.ExhaustedError
	if errors.As(err, &ex) {
		in.stats.mu.Lock()
		ts.Exhausted++
		in.stats.mu.Unlock()
		if st.Catch != nil {
			in.stats.mu.Lock()
			ts.CaughtBy++
			in.stats.mu.Unlock()
			if in.cfg.Log != nil {
				in.logf("try %s: exhausted, running catch", st.Pos())
			}
			cerr := in.execBlock(ctx, st.Catch)
			if cerr != nil {
				return cerr
			}
			return nil
		}
	}
	return err
}

// tryObserver feeds a try's events into Stats (attempt counts, backoff
// time).
type tryObserver struct {
	rt    core.Runtime
	ts    *TryStats
	stats *Stats

	backoffStart time.Time
	inBackoff    bool
}

// Observe implements core.Observer.
func (o *tryObserver) Observe(ev core.Event, at time.Time, detail error) {
	o.stats.mu.Lock()
	if o.inBackoff {
		o.ts.BackoffTotal += at.Sub(o.backoffStart)
		o.inBackoff = false
	}
	switch ev {
	case core.EvAttempt:
		o.ts.Attempts++
	case core.EvBackoff:
		o.backoffStart = at
		o.inBackoff = true
	}
	o.stats.mu.Unlock()
}

// finish closes out a backoff that was cut short by the budget.
func (o *tryObserver) finish() {
	o.stats.mu.Lock()
	defer o.stats.mu.Unlock()
	if o.inBackoff {
		o.ts.BackoffTotal += o.rt.Now().Sub(o.backoffStart)
		o.inBackoff = false
	}
}

// execForany tries each alternative until one succeeds. The loop
// variable retains the winning value after the construct, as in the
// paper's `echo "got file from ${server}"` example.
func (in *Interp) execForany(ctx context.Context, st *ast.ForanyStmt) error {
	items, err := in.expandList(st.List)
	if err != nil {
		return &PosError{Pos: st.Pos(), Err: err}
	}
	if len(items) == 0 {
		return &PosError{Pos: st.Pos(), Err: errors.New("forany: empty alternative list")}
	}
	sawSuccess := false
	tr := in.cfg.Trace
	span := tr.SpanBegin(in.spanName("forany", st.Pos()))
	defer tr.SpanEnd(span)
	winner, err := core.Forany(ctx, in.cfg.Runtime, items, in.cfg.ShuffleForany, func(ctx context.Context, item string) error {
		in.vars.set(st.Sym, item)
		err := in.execBlock(ctx, st.Body)
		if errors.Is(err, errSuccess) {
			sawSuccess = true
			return nil
		}
		return err
	})
	if err != nil {
		return &PosError{Pos: st.Pos(), Err: err}
	}
	in.stats.recordForanyWin(st.Pos(), winner)
	if sawSuccess {
		return errSuccess
	}
	return nil
}

// execForall runs alternatives in parallel; each branch gets a private
// copy of the variable state and of the function table, like a
// subshell, so branches cannot race and what one defines or assigns
// neither leaks out of it nor into a sibling.
func (in *Interp) execForall(ctx context.Context, st *ast.ForallStmt) error {
	items, err := in.expandList(st.List)
	if err != nil {
		return &PosError{Pos: st.Pos(), Err: err}
	}
	tr := in.cfg.Trace
	name := in.spanName("forall", st.Pos())
	span := tr.SpanBegin(name)
	defer tr.SpanEnd(span)
	err = core.ForallN(ctx, in.cfg.Runtime, in.cfg.MaxForall, items, func(ctx context.Context, rt core.Runtime, item string) error {
		var thread *trace.Client
		if tr != nil {
			thread = tr.Fork(name + " " + item)
		}
		branch := in.cloneForBranch(rt, thread)
		branch.vars.set(st.Sym, item)
		err := branch.execBlock(ctx, st.Body)
		if errors.Is(err, errSuccess) {
			return nil // success unwinds only to the branch boundary
		}
		return err
	})
	if err != nil {
		return &PosError{Pos: st.Pos(), Err: err}
	}
	return nil
}

// cloneForBranch makes the interpreter of a forall branch running under
// runtime rt and tracing to tc: a copy of the variables, the function
// table copied on the branch's first definition (the parent defines
// nothing while its branches run), its own argv stack, and the parent's
// call depth, so that recursion through a forall meets maxCallDepth
// too. The positional parameters are the parent's, read in place: they
// sit below the top of the parent's argv stack until the forall returns.
func (in *Interp) cloneForBranch(rt core.Runtime, tc *trace.Client) *Interp {
	cfg := in.cfg
	cfg.Runtime = rt
	cfg.Trace = tc
	return &Interp{
		cfg: cfg, vars: in.vars.clone(), fns: in.fns, fnsShared: true,
		args: in.args, depth: in.depth, stats: in.stats, stdio: in.stdio,
	}
}

// define adds a function to the table, first making the table this
// interpreter's own if it is still a forall parent's.
func (in *Interp) define(fn *ast.FunctionStmt) {
	if in.fnsShared {
		in.fns, in.fnsShared = maps.Clone(in.fns), false
	}
	if in.fns == nil {
		in.fns = make(map[token.Sym]*ast.FunctionStmt)
	}
	in.fns[fn.Sym] = fn
}

// execFor runs the body once per item, sequentially, failing fast.
func (in *Interp) execFor(ctx context.Context, st *ast.ForStmt) error {
	items, err := in.expandList(st.List)
	if err != nil {
		return &PosError{Pos: st.Pos(), Err: err}
	}
	for _, item := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		in.vars.set(st.Sym, item)
		if err := in.execBlock(ctx, st.Body); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execWhile(ctx context.Context, st *ast.WhileStmt) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, err := in.evalCond(st.Cond)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := in.execBlock(ctx, st.Body); err != nil {
			return err
		}
	}
}

func (in *Interp) execIf(ctx context.Context, st *ast.IfStmt) error {
	ok, err := in.evalCond(st.Cond)
	if err != nil {
		return err
	}
	if ok {
		return in.execBlock(ctx, st.Then)
	}
	for _, e := range st.Elifs {
		ok, err := in.evalCond(e.Cond)
		if err != nil {
			return err
		}
		if ok {
			return in.execBlock(ctx, e.Body)
		}
	}
	if st.Else != nil {
		return in.execBlock(ctx, st.Else)
	}
	return nil
}

// evalCond evaluates a condition to a boolean.
func (in *Interp) evalCond(c *ast.Cond) (bool, error) {
	if c.IsLit {
		return c.Lit, nil
	}
	if c.Op == ".exists." {
		name, err := in.expandWord(c.Right)
		if err != nil {
			return false, &PosError{Pos: c.Pos(), Err: err}
		}
		if in.cfg.FS == nil {
			return false, &PosError{Pos: c.Pos(), Err: errors.New(".exists. requires a filesystem")}
		}
		r, err := in.cfg.FS.OpenRead(name)
		if err != nil {
			return false, nil
		}
		r.Close()
		return true, nil
	}
	l, err := in.expandWord(c.Left)
	if err != nil {
		return false, &PosError{Pos: c.Pos(), Err: err}
	}
	r, err := in.expandWord(c.Right)
	if err != nil {
		return false, &PosError{Pos: c.Pos(), Err: err}
	}
	switch c.Op {
	case ".eql.":
		return l == r, nil
	case ".neql.":
		return l != r, nil
	}
	lf, okL := operand(c.Left, l)
	rf, okR := operand(c.Right, r)
	if !okL || !okR {
		return false, &PosError{Pos: c.Pos(), Err: fmt.Errorf("numeric comparison %s on non-numeric operands %q, %q", c.Op, l, r)}
	}
	switch c.Op {
	case ".lt.":
		return lf < rf, nil
	case ".gt.":
		return lf > rf, nil
	case ".le.":
		return lf <= rf, nil
	case ".ge.":
		return lf >= rf, nil
	case ".eq.":
		return lf == rf, nil
	case ".ne.":
		return lf != rf, nil
	default:
		return false, &PosError{Pos: c.Pos(), Err: fmt.Errorf("unknown operator %q", c.Op)}
	}
}

// callFunction invokes a user-defined function with positional args.
func (in *Interp) callFunction(ctx context.Context, fn *ast.FunctionStmt, args []string) error {
	if in.depth >= maxCallDepth {
		return tooDeep(fn)
	}
	in.depth++
	saved := in.args
	in.args = args
	err := in.execBlock(ctx, fn.Body)
	in.args = saved
	in.depth--
	if errors.Is(err, errSuccess) {
		return nil
	}
	return err
}

// tooDeep is the error of a call past maxCallDepth. It is a function of
// its own, never inlined, so that callFunction, one frame of every call
// level, does not carry fmt's arguments.
//
//go:noinline
func tooDeep(fn *ast.FunctionStmt) error {
	return &PosError{Pos: fn.Pos(), Err: fmt.Errorf("call depth exceeds %d: unbounded recursion in function %q", maxCallDepth, fn.Name)}
}

// operand is a numeric comparison's operand w, which expanded to s: the
// value the parser read from a literal, or s parsed now.
func operand(w *ast.Word, s string) (float64, bool) {
	if w.Kind == ast.WordLit {
		return w.Num, w.IsNum
	}
	return ast.ParseNum(s)
}

// forever is the duration of a sleep no clock can count.
const forever time.Duration = math.MaxInt64

// durationArg parses builtin sleep's argument: a float number of seconds
// or a Go-style duration like 500ms. NaN and negative durations are
// invalid. Infinity, and any number of seconds past what a
// time.Duration holds, is forever.
func durationArg(s string) (time.Duration, error) {
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		d, err := time.ParseDuration(s)
		if err == nil && d < 0 {
			return 0, fmt.Errorf("invalid duration %q", s)
		}
		return d, err
	}
	switch ns := secs * float64(time.Second); {
	case math.IsNaN(ns) || ns < 0:
		return 0, fmt.Errorf("invalid duration %q", s)
	case ns >= float64(forever):
		return forever, nil
	default:
		return time.Duration(ns), nil
	}
}
