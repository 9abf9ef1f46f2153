package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/token"
)

// execCommand expands a command onto the argv stack and runs it: a
// user-defined function directly, a builtin or the Runner through
// dispatch, a command with redirections through execRedirected. The
// command's name is the symbol the parser resolved, or, for a name
// built at run time, the one its first field interns to. The argv is
// popped when the command returns.
//
// A call level of a recursive function is this frame, callFunction's,
// execBlock's and execStmt's, so this one is kept small: what only a
// redirected or a failing command needs lives in functions of its own.
func (in *Interp) execCommand(ctx context.Context, st *ast.CommandStmt) error {
	base := len(in.argv)
	argv, err := in.pushArgv(st.Words)
	switch {
	case err != nil:
		err = &PosError{Pos: st.Pos(), Err: err}
	case len(argv) == 0:
		err = &PosError{Pos: st.Pos(), Err: errors.New("command expanded to nothing")}
	case len(st.Redirs) > 0:
		err = in.execRedirected(ctx, st, argv)
	default:
		head := headSym(st.Words[0].Sym, argv[0])
		if fn := in.function(head); fn != nil {
			err = in.callFunction(ctx, fn, argv[1:])
		} else {
			err = in.dispatch(ctx, head, argv, &in.stdio)
		}
		err = in.commandErr(st.Pos(), argv[0], err)
	}
	in.argv = in.argv[:base]
	return err
}

// headSym is the symbol of a command's name: the parser's, or, when the
// name was built at run time, the interned name's. A name never interned
// names no function and no builtin, and interning it would only grow
// the table, so it stays the zero Sym.
func headSym(head token.Sym, name string) token.Sym {
	if head == 0 {
		head, _ = token.Lookup(name)
	}
	return head
}

// function returns the user function named head, or nil.
func (in *Interp) function(head token.Sym) *ast.FunctionStmt {
	if in.fns == nil {
		return nil
	}
	return in.fns[head]
}

// pushArgv expands words onto the argv stack and returns the fields it
// pushed. The slice aliases the stack, so it is good until the command
// that pushed it pops it; for a function call that is after the body,
// so a function's positional parameters stay below the stack top for
// as long as it runs.
func (in *Interp) pushArgv(words []*ast.Word) ([]string, error) {
	base := len(in.argv)
	stack, err := in.appendFields(slices.Grow(in.argv, len(words)), words)
	in.argv = stack
	return stack[base:], err
}

// commandErr is what a command that ran returns: nil, or success's
// unwinding, as they are; a failure logged and with its position. The
// nil case is small enough to inline.
func (in *Interp) commandErr(pos token.Pos, name string, err error) error {
	if err == nil {
		return nil
	}
	return in.commandFailed(pos, name, err)
}

// commandFailed is commandErr for an error.
func (in *Interp) commandFailed(pos token.Pos, name string, err error) error {
	if errors.Is(err, errSuccess) {
		return err
	}
	if in.cfg.Log != nil {
		in.logf("command %s failed: %v", name, err)
	}
	return wrapPos(pos, err)
}

// execRedirected runs a command that has redirections: it resolves
// them, runs the command as execCommand would, and finalizes the
// targets (variables, files) whatever the command's outcome, matching
// shell behaviour.
func (in *Interp) execRedirected(ctx context.Context, st *ast.CommandStmt, argv []string) error {
	var few [2]finisher // a command with more redirections spills to the heap
	io_ := in.stdio
	fins, err := in.setupRedirs(st.Redirs, &io_, few[:0])
	if err != nil {
		_ = in.finish(fins) // release any redirection targets opened before the error
		return &PosError{Pos: st.Pos(), Err: err}
	}
	head := headSym(st.Words[0].Sym, argv[0])
	if fn := in.function(head); fn != nil {
		err = in.callFunction(ctx, fn, argv[1:])
	} else {
		err = in.dispatch(ctx, head, argv, &io_)
	}
	if ferr := in.finish(fins); ferr != nil && err == nil {
		err = ferr
	}
	return in.commandErr(st.Pos(), argv[0], err)
}

// cmdIO is the resolved I/O plumbing for one command. It is passed by
// value: three interface words, nothing to allocate.
type cmdIO struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

// noInput is the stdin of a command without an input redirection:
// always at end of file, and stateless, so every command of every
// forall branch shares the one value.
type noInput struct{}

func (noInput) Read([]byte) (int, error) { return 0, io.EOF }

// finisher is what one redirection leaves to do once its command has
// run: close a file, or store capture buffer in.bufs[buf] into variable
// sym. It holds the buffer by index, so filling one in stores no
// pointer.
type finisher struct {
	file io.Closer
	sym  token.Sym
	buf  int
}

// setupRedirs resolves redirections into the readers and writers of
// io_, and appends to fins what finish must do afterwards (on an error
// too, for the targets already opened): flush variable captures and
// close files.
func (in *Interp) setupRedirs(redirs []*ast.Redir, io_ *cmdIO, fins []finisher) ([]finisher, error) {
	for _, r := range redirs {
		sym := r.Target.Sym
		var target string
		if sym == 0 {
			var err error
			if target, err = in.expandWord(r.Target); err != nil {
				return fins, err
			}
		}
		switch r.Op {
		case token.GT, token.GTGT, token.GTAMP:
			if in.cfg.FS == nil {
				return fins, fmt.Errorf("file redirection %s unavailable (no filesystem)", r.Op)
			}
			w, err := in.cfg.FS.OpenWrite(target, r.Op == token.GTGT)
			if err != nil {
				return fins, err
			}
			fins = append(fins, finisher{file: w})
			io_.stdout = w
			if r.Op == token.GTAMP {
				io_.stderr = w
			}
		case token.LT:
			if in.cfg.FS == nil {
				return fins, fmt.Errorf("file redirection < unavailable (no filesystem)")
			}
			rd, err := in.cfg.FS.OpenRead(target)
			if err != nil {
				return fins, err
			}
			fins = append(fins, finisher{file: rd})
			io_.stdin = rd
		case token.DASHGT, token.DASHGTGT, token.DASHGTAMP:
			if sym == 0 {
				sym = token.Intern(target) // the capture sets it
			}
			k, buf := in.captureBuf()
			if r.Op == token.DASHGTGT {
				if old := in.vars.get(sym); old != "" {
					// Re-insert the newline stripped by the previous
					// capture so appended records stay line-separated.
					buf.WriteString(old)
					buf.WriteByte('\n')
				}
			}
			io_.stdout = buf
			if r.Op == token.DASHGTAMP {
				io_.stderr = buf
			}
			fins = append(fins, finisher{sym: sym, buf: k})
		case token.DASHLT:
			if sym == 0 {
				sym, _ = token.Lookup(target)
			}
			io_.stdin = strings.NewReader(in.vars.get(sym))
		default:
			return fins, fmt.Errorf("unsupported redirection %v", r.Op)
		}
	}
	return fins, nil
}

// captureBuf takes an empty buffer for a variable capture, and its
// index: the first of in.bufs not in use. Captures nest — several on
// one command, or a function body's inside its call's — and finish
// releases a command's captures together, so the buffers in use are
// always the first in.ncap, a loop's captures share one, and captures
// that live together never do.
func (in *Interp) captureBuf() (int, *bytes.Buffer) {
	k := in.ncap
	if k == len(in.bufs) {
		in.bufs = append(in.bufs, new(bytes.Buffer))
	}
	in.ncap++
	return k, in.bufs[k]
}

// finish runs a command's finishers in redirection order and returns
// the first error. It releases the command's capture buffers, which are
// the last taken, by lowering in.ncap to the first of them.
func (in *Interp) finish(fins []finisher) error {
	var first error
	for _, f := range fins {
		if f.file != nil {
			if err := f.file.Close(); err != nil && first == nil {
				first = err
			}
			continue
		}
		// ftsh strips the trailing newline when capturing into a
		// variable, so `cut ... -> n` compares cleanly.
		buf := in.bufs[f.buf]
		in.vars.set(f.sym, string(bytes.TrimRight(buf.Bytes(), "\n")))
		buf.Reset()
		in.ncap = min(in.ncap, f.buf)
	}
	return first
}

// dispatch routes argv, whose name is head, to a builtin or the Runner.
// It takes the streams by reference: by value they would be six words
// of every call level's execCommand frame.
func (in *Interp) dispatch(ctx context.Context, head token.Sym, argv []string, io_ *cmdIO) error {
	name := argv[0]
	if bi := builtinOf(head); bi != nil {
		return bi(ctx, in, argv[1:], *io_)
	}
	if in.cfg.Log != nil {
		in.logf("exec %s", strings.Join(argv, " "))
	}
	err := in.cfg.Runner.Run(ctx, in.cfg.Runtime, &Command{
		Name:   name,
		Args:   argv[1:],
		Stdin:  io_.stdin,
		Stdout: io_.stdout,
		Stderr: io_.stderr,
	})
	in.stats.recordCommand(name, err != nil)
	return err
}

// builtin is an internal command. Builtins exist for operations that
// must interact with the interpreter state or the virtual clock.
type builtin func(ctx context.Context, in *Interp, args []string, io_ cmdIO) error

// builtinTab holds the builtins by symbol, offset by builtinBase. The
// names are interned together when the package initializes, so the
// table spans just them, and finding a builtin is a subtraction and a
// bounds check.
var builtinBase, builtinTab = builtinTable([]namedBuiltin{
	{"echo", biEcho},
	{"true", biTrue},
	{"false", biFalse},
	{"sleep", biSleep},
	{"expr", biExpr},
	{"cat", biCat},
	{"rm", biRm},
})

type namedBuiltin struct {
	name string
	fn   builtin
}

// builtinTable interns the builtins' names and files each builtin at
// its symbol less the lowest one, which it returns with the table.
func builtinTable(list []namedBuiltin) (token.Sym, []builtin) {
	syms := make([]token.Sym, len(list))
	for i, b := range list {
		syms[i] = token.Intern(b.name)
	}
	lo := slices.Min(syms)
	tab := make([]builtin, slices.Max(syms)-lo+1)
	for i, b := range list {
		tab[syms[i]-lo] = b.fn
	}
	return lo, tab
}

// builtinOf returns the builtin named head, or nil.
func builtinOf(head token.Sym) builtin {
	if i := head - builtinBase; int(i) < len(builtinTab) {
		return builtinTab[i]
	}
	return nil
}

// biRm removes files through the FS abstraction. With -f, missing files
// are not an error — the idempotence §4 demands of repeated actions
// ("the rm command used above is given the -f option to instruct it to
// return success if the named file does not exist").
func biRm(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	force := false
	if len(args) > 0 && args[0] == "-f" {
		force = true
		args = args[1:]
	}
	if len(args) == 0 {
		return errors.New("rm: missing operand")
	}
	type remover interface{ Remove(name string) }
	type statter interface {
		ReadFile(name string) ([]byte, bool)
	}
	switch fs := in.cfg.FS.(type) {
	case *MemFS:
		for _, name := range args {
			if _, ok := fs.ReadFile(name); !ok && !force {
				return fmt.Errorf("rm: %s: no such file", name)
			}
			fs.Remove(name)
		}
		return nil
	case OSFS:
		for _, name := range args {
			if err := osRemove(name); err != nil && !force {
				return fmt.Errorf("rm: %w", err)
			}
		}
		return nil
	case nil:
		return errors.New("rm: no filesystem available")
	default:
		// Custom FS implementations may support removal.
		rm, ok := in.cfg.FS.(remover)
		if !ok {
			return errors.New("rm: filesystem does not support removal")
		}
		if st, ok := in.cfg.FS.(statter); ok && !force {
			for _, name := range args {
				if _, exists := st.ReadFile(name); !exists {
					return fmt.Errorf("rm: %s: no such file", name)
				}
			}
		}
		for _, name := range args {
			rm.Remove(name)
		}
		return nil
	}
}

// biEcho writes its arguments to stdout separated by spaces.
func biEcho(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	line := in.line[:0]
	for i, a := range args {
		if i > 0 {
			line = append(line, ' ')
		}
		line = append(line, a...)
	}
	return in.writeLine(io_.stdout, line)
}

// writeLine writes line and a newline in one Write, and keeps the
// grown buffer as in.line for the next builtin's output.
func (in *Interp) writeLine(w io.Writer, line []byte) error {
	in.line = append(line, '\n')
	_, err := w.Write(in.line)
	return err
}

// biTrue succeeds.
func biTrue(ctx context.Context, in *Interp, args []string, io_ cmdIO) error { return nil }

// biFalse fails.
func biFalse(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	return core.ErrFailure
}

// biSleep pauses in runtime time: `sleep 5`, `sleep 0.25`, `sleep 500ms`.
// Under the simulator this advances the virtual clock. `sleep inf`
// sleeps until the context ends, as GNU sleep does; `sleep 0` yields.
func biSleep(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	if len(args) != 1 {
		return errors.New("sleep: want exactly one duration argument")
	}
	d, err := durationArg(args[0])
	if err != nil {
		return fmt.Errorf("sleep: %w", err)
	}
	if d == forever {
		// No clock can add forever to its now without overflowing, so
		// forever is slept a day at a time.
		for {
			if err := in.cfg.Runtime.Sleep(ctx, 24*time.Hour); err != nil {
				return err
			}
		}
	}
	return in.cfg.Runtime.Sleep(ctx, d)
}

// biExpr evaluates a left-to-right arithmetic expression and prints the
// result: `expr ${n} + 1 -> n`. Supported operators: + - * / %.
func biExpr(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	if len(args) == 0 || len(args)%2 == 0 {
		return errors.New("expr: want `value (op value)...`")
	}
	acc, ok := ast.ParseNum(args[0])
	if !ok {
		return fmt.Errorf("expr: bad operand %q", args[0])
	}
	for i := 1; i < len(args); i += 2 {
		rhs, ok := ast.ParseNum(args[i+1])
		if !ok {
			return fmt.Errorf("expr: bad operand %q", args[i+1])
		}
		switch args[i] {
		case "+":
			acc += rhs
		case "-":
			acc -= rhs
		case "*":
			acc *= rhs
		case "/":
			if rhs == 0 {
				return errors.New("expr: division by zero")
			}
			acc /= rhs
		case "%":
			if int64(rhs) == 0 {
				return errors.New("expr: modulo by zero")
			}
			acc = float64(int64(acc) % int64(rhs))
		default:
			return fmt.Errorf("expr: unknown operator %q", args[i])
		}
	}
	if acc == float64(int64(acc)) {
		_ = in.writeLine(io_.stdout, strconv.AppendInt(in.line[:0], int64(acc), 10))
	} else {
		_ = in.writeLine(io_.stdout, strconv.AppendFloat(in.line[:0], acc, 'g', -1, 64))
	}
	return nil
}

// biCat copies stdin to stdout, enabling the paper's
//
//	try 5 times
//	  run-simulation ->& tmp
//	end
//	cat -< tmp
//
// I/O-transaction idiom without an external cat.
func biCat(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	if len(args) > 0 {
		// `cat file...` still goes through the FS abstraction.
		if in.cfg.FS == nil {
			return errors.New("cat: no filesystem available")
		}
		for _, name := range args {
			r, err := in.cfg.FS.OpenRead(name)
			if err != nil {
				return err
			}
			_, cerr := io.Copy(io_.stdout, r)
			r.Close()
			if cerr != nil {
				return cerr
			}
		}
		return nil
	}
	_, err := io.Copy(io_.stdout, io_.stdin)
	return err
}
