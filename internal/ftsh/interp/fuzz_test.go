package interp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/sim"
)

// FuzzInterp executes arbitrary parseable scripts end to end — lexer,
// parser, interpreter, simulator — inside the conformance corpus's
// deterministic world. The property is crash-freedom: any input must
// run to a clean success or failure in bounded virtual time, never
// panic, overflow the stack, or wedge the engine. Parse failures are
// skipped (FuzzParse owns input robustness), as are scripts containing
// `while`, whose loops can be legitimately infinite (quick_test.go
// excludes them for the same reason).
func FuzzInterp(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ftsh"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance corpus to seed from: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// One seed per shape the expander, the redirection plumbing and the
	// numeric builtins take a short cut for.
	for _, src := range []string{
		"function f\n  echo ${+1} ${007} $# $*\nend\nf a b\n", // signed and zero-padded positionals
		"echo ${0}\n", // invalid positional
		"x=\"  \"\n${x} echo\necho ${x} a ${x}\n",                                                                  // whitespace-only variable in argv position
		"x=\necho \"${x}\" ${x} \"\"\n",                                                                            // empty: quoted is a field, unquoted is none
		"l=\"a  b\tc\"\nfor i in ${l} \"${l}\" x${l}y\n  echo ${i}\nend\n",                                         // one variable: split, quoted, mixed
		"function g\n  echo inner -> b\nend\nfunction f\n  g -> b\n  echo ${b}\nend\nf -> a\necho [${a}] [${b}]\n", // nested captures
		"echo one -> v\necho two ->> v\necho three ->> v -> w\necho ${v} ${w}\n",                                   // ->> after a capture; two captures on one command
		"echo x > f -> v < f >> f\ncat f\n",                                                                        // more redirections than the fixed array holds
		"expr 1e3 + 1 -> n\nexpr 0x1p4 * 2\nexpr 999999999999999 + 1\nexpr 9999999999999999 + 1\n",                 // beyond plain digits
		"if 0x1p4 .lt. 17\n  echo yes\nend\nif Inf .gt. 1e3\n  echo inf\nend\nif 007 .eq. 7\n  echo seven\nend\n",
		// Names built at run time: a command head, and the targets of
		// ->, ->> and -<, one of them a name no script spells.
		"c=echo\n${c} hi\nv=t\necho a -> ${v}\necho b ->> ${v}\ncat -< ${v} -> w\necho ${t} ${w}\nu=never_spelled\necho x -> ${u}\n",
		"f=nope\n${f} x\ne=\n${e} echo still\n", // a head that names nothing; an empty head
		// A function that shadows a builtin, called by name and through
		// a variable.
		"function expr\n  echo mine $*\nend\nexpr 1 + 2 -> r\ne=expr\n${e} 3 -> s\necho ${r} ${s}\n",
		"sleep inf\ntry for 1 second\n  sleep nan\nend\n", // sleeps no clock counts
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		// Sound over-approximation: the while keyword must appear
		// literally in any script that parses to a WhileStmt.
		if strings.Contains(src, "while") {
			t.Skip("while loops may be legitimately infinite")
		}
		script, err := parser.Parse(src)
		if err != nil {
			t.Skip("parse failure is FuzzParse's territory")
		}
		w := corpusWorld(1)
		// Bound runaway virtual-time loops (e.g. a try that retries a
		// zero-cost failure under an enormous budget): the engine stops
		// with a "likely livelock" error instead of spinning.
		w.eng.MaxEvents = 2_000_000
		w.eng.Spawn("script", func(p *sim.Proc) {
			cfg := interp.Config{
				Runner:  w.runner,
				Runtime: p,
				Stdout:  &w.out,
				Stderr:  &w.out,
				FS:      w.fs,
			}
			in := interp.New(cfg)
			ctx, cancel := p.WithTimeout(w.eng.Context(), 24*time.Hour)
			defer cancel()
			_ = in.Run(ctx, script) // success and failure are both fine
		})
		if err := w.eng.Run(); err != nil {
			t.Skip("hit the event bound: unbounded but legal script")
		}
	})
}
