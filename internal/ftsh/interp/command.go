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

	"repro/internal/core"
	"repro/internal/ftsh/ast"
	"repro/internal/ftsh/token"
)

// execCommand expands a command onto the argv stack and runs it: a
// user-defined function directly, a builtin or the Runner through
// dispatch, a command with redirections through execRedirected. The
// argv is popped when the command returns.
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
		if fn := in.fns[argv[0]]; fn != nil {
			err = in.callFunction(ctx, fn, argv[1:])
		} else {
			err = in.dispatch(ctx, argv, &in.stdio)
		}
		err = in.commandErr(st.Pos(), argv[0], err)
	}
	in.argv = in.argv[:base]
	return err
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
// unwinding, as they are; a failure logged and with its position.
func (in *Interp) commandErr(pos token.Pos, name string, err error) error {
	if err == nil || errors.Is(err, errSuccess) {
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
	io_, fins, err := in.setupRedirs(st.Redirs, few[:0])
	if err != nil {
		_ = in.finish(fins) // release any redirection targets opened before the error
		return &PosError{Pos: st.Pos(), Err: err}
	}
	if fn := in.fns[argv[0]]; fn != nil {
		err = in.callFunction(ctx, fn, argv[1:])
	} else {
		err = in.dispatch(ctx, argv, &io_)
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
// run: close a file, or store a capture buffer into a variable.
type finisher struct {
	file io.Closer
	buf  *bytes.Buffer
	name string
}

// setupRedirs resolves redirections into readers/writers, and appends
// to fins what finish must do afterwards (on an error too, for the
// targets already opened): flush variable captures and close files.
func (in *Interp) setupRedirs(redirs []*ast.Redir, fins []finisher) (cmdIO, []finisher, error) {
	io_ := in.stdio
	for _, r := range redirs {
		target, err := in.expandWord(r.Target)
		if err != nil {
			return io_, fins, err
		}
		switch r.Op {
		case token.GT, token.GTGT, token.GTAMP:
			if in.cfg.FS == nil {
				return io_, fins, fmt.Errorf("file redirection %s unavailable (no filesystem)", r.Op)
			}
			w, err := in.cfg.FS.OpenWrite(target, r.Op == token.GTGT)
			if err != nil {
				return io_, fins, err
			}
			fins = append(fins, finisher{file: w})
			io_.stdout = w
			if r.Op == token.GTAMP {
				io_.stderr = w
			}
		case token.LT:
			if in.cfg.FS == nil {
				return io_, fins, fmt.Errorf("file redirection < unavailable (no filesystem)")
			}
			rd, err := in.cfg.FS.OpenRead(target)
			if err != nil {
				return io_, fins, err
			}
			fins = append(fins, finisher{file: rd})
			io_.stdin = rd
		case token.DASHGT, token.DASHGTGT, token.DASHGTAMP:
			buf := in.captureBuf()
			if r.Op == token.DASHGTGT && in.vars[target] != "" {
				// Re-insert the newline stripped by the previous capture
				// so appended records stay line-separated.
				buf.WriteString(in.vars[target])
				buf.WriteByte('\n')
			}
			io_.stdout = buf
			if r.Op == token.DASHGTAMP {
				io_.stderr = buf
			}
			fins = append(fins, finisher{buf: buf, name: target})
		case token.DASHLT:
			io_.stdin = strings.NewReader(in.vars[target])
		default:
			return io_, fins, fmt.Errorf("unsupported redirection %v", r.Op)
		}
	}
	return io_, fins, nil
}

// captureBuf takes an empty buffer for a variable capture. finish puts
// it back on in.bufs, so a loop's captures share one, while captures
// live together — several on one command, or a function body's inside
// its call's — never do.
func (in *Interp) captureBuf() *bytes.Buffer {
	k := len(in.bufs)
	if k == 0 {
		return new(bytes.Buffer)
	}
	buf := in.bufs[k-1]
	in.bufs = in.bufs[:k-1]
	return buf
}

// finish runs a command's finishers in redirection order and returns
// the first error.
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
		in.vars[f.name] = strings.TrimRight(f.buf.String(), "\n")
		f.buf.Reset()
		in.bufs = append(in.bufs, f.buf)
	}
	return first
}

// dispatch routes argv to a builtin or the Runner. It takes the streams
// by reference: by value they would be six words of every call level's
// execCommand frame.
func (in *Interp) dispatch(ctx context.Context, argv []string, io_ *cmdIO) error {
	name := argv[0]
	if bi, ok := builtins[name]; ok {
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

var builtins map[string]builtin

func init() {
	// Initialized in init to avoid an initialization cycle through the
	// help builtin referencing the table itself.
	builtins = map[string]builtin{
		"echo":  biEcho,
		"true":  biTrue,
		"false": biFalse,
		"sleep": biSleep,
		"expr":  biExpr,
		"cat":   biCat,
		"rm":    biRm,
	}
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
// Under the simulator this advances the virtual clock.
func biSleep(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	if len(args) != 1 {
		return errors.New("sleep: want exactly one duration argument")
	}
	d, err := durationArg(args[0])
	if err != nil {
		return fmt.Errorf("sleep: %w", err)
	}
	return in.cfg.Runtime.Sleep(ctx, d)
}

// biExpr evaluates a left-to-right arithmetic expression and prints the
// result: `expr ${n} + 1 -> n`. Supported operators: + - * / %.
func biExpr(ctx context.Context, in *Interp, args []string, io_ cmdIO) error {
	if len(args) == 0 || len(args)%2 == 0 {
		return errors.New("expr: want `value (op value)...`")
	}
	acc, err := parseNum(args[0])
	if err != nil {
		return fmt.Errorf("expr: bad operand %q", args[0])
	}
	for i := 1; i < len(args); i += 2 {
		rhs, err := parseNum(args[i+1])
		if err != nil {
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
