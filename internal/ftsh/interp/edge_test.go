package interp_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/sim"
)

func TestBuiltinsTrueFalse(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "true\n", nil); err != nil {
		t.Fatalf("true failed: %v", err)
	}
	if err := w.run(t, "false\n", nil); err == nil {
		t.Fatal("false succeeded")
	}
}

func TestBuiltinSleepErrors(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "sleep\n", nil); err == nil {
		t.Fatal("sleep with no args succeeded")
	}
	if err := w.run(t, "sleep abc\n", nil); err == nil {
		t.Fatal("sleep with bad duration succeeded")
	}
	if err := w.run(t, "sleep 250ms\n", nil); err != nil {
		t.Fatalf("go-style duration rejected: %v", err)
	}
	// NaN and negative durations are errors, not sleeps that return at
	// once.
	for _, arg := range []string{"nan", "NaN", "-5", "-1s", "-inf", "-1e300"} {
		err := newWorld(1).run(t, "sleep "+arg+"\n", nil)
		if err == nil || !strings.Contains(err.Error(), "sleep: invalid duration") {
			t.Errorf("sleep %s: err = %v, want an invalid duration", arg, err)
		}
	}
	// sleep 0 yields and succeeds at once.
	w = newWorld(1)
	if err := w.run(t, "sleep 0\n", nil); err != nil || w.eng.Elapsed() != 0 {
		t.Errorf("sleep 0: err = %v after %v", err, w.eng.Elapsed())
	}
}

// TestSleepForeverUntilBudget checks that sleeps no clock can count —
// inf, and more seconds than a time.Duration holds — last until the
// context ends, as GNU sleep inf does: under `try for 2 seconds` the try
// fails after exactly 2 virtual seconds, and the next line never runs.
func TestSleepForeverUntilBudget(t *testing.T) {
	for _, arg := range []string{"inf", "+Inf", "infinity", "1e300", "1e400", "9223372037"} {
		w := newWorld(1)
		err := w.run(t, "try for 2 seconds\n  sleep "+arg+"\n  echo woke\nend\n", nil)
		if err == nil {
			t.Errorf("sleep %s inside a 2 s try succeeded", arg)
		}
		if got := w.eng.Elapsed(); got != 2*time.Second {
			t.Errorf("sleep %s: try ended after %v, want 2s", arg, got)
		}
		if strings.Contains(w.out.String(), "woke") {
			t.Errorf("sleep %s returned: %q", arg, w.out.String())
		}
	}
}

func TestBuiltinExprFull(t *testing.T) {
	w := newWorld(1)
	src := `expr 10 - 3 -> a
expr ${a} * 4 -> b
expr ${b} / 2 -> c
expr ${c} % 4 -> d
expr 1.5 + 1 -> e
echo ${a} ${b} ${c} ${d} ${e}
`
	if err := w.run(t, src, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(w.out.String(), "7 28 14 2 2.5") {
		t.Fatalf("out = %q", w.out.String())
	}
}

func TestBuiltinExprErrors(t *testing.T) {
	w := newWorld(1)
	for _, src := range []string{
		"expr\n",          // no args
		"expr 1 +\n",      // missing operand
		"expr 1 + pear\n", // bad operand
		"expr pear + 1\n", // bad first operand
		"expr 1 ? 2\n",    // unknown operator
		"expr 1 / 0\n",    // division by zero
		"expr 1 % 0\n",    // modulo by zero
	} {
		if err := w.run(t, src, nil); err == nil {
			t.Errorf("%q succeeded", src)
		}
	}
}

func TestCatMissingFile(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "cat missing.txt\n", nil); err == nil {
		t.Fatal("cat of missing file succeeded")
	}
}

func TestStdinRedirectionMissingFile(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "cat < nope.txt\n", nil); err == nil {
		t.Fatal("redirect from missing file succeeded")
	}
}

func TestFileRedirectionWithoutFS(t *testing.T) {
	w := newWorld(1)
	err := w.run(t, "echo x > f\n", func(cfg *interp.Config) { cfg.FS = nil })
	if err == nil || !strings.Contains(err.Error(), "redirection") {
		t.Fatalf("err = %v", err)
	}
	err = w.run(t, "cat < f\n", func(cfg *interp.Config) { cfg.FS = nil })
	if err == nil {
		t.Fatal("read redirection without FS succeeded")
	}
}

func TestEmptyCommandAfterExpansion(t *testing.T) {
	w := newWorld(1)
	err := w.run(t, "${nothing}\n", nil)
	if err == nil || !strings.Contains(err.Error(), "expanded to nothing") {
		t.Fatalf("err = %v", err)
	}
}

func TestPositionalParamEdgeCases(t *testing.T) {
	w := newWorld(1)
	var out string
	w.eng.Spawn("script", func(p *sim.Proc) {
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: &w.out})
		in.SetArgs([]string{"one", "two"})
		if err := in.RunSource(w.eng.Context(), "echo [${1}] [${3}] [$*] [$#]\n"); err != nil {
			t.Errorf("err = %v", err)
		}
		out = w.out.String()
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[one] [] [one two] [2]") {
		t.Fatalf("out = %q", out)
	}
}

func TestInvalidPositionalZero(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "echo ${0}\n", nil); err == nil {
		t.Fatal("$0 accepted")
	}
}

func TestForEmptyListViaVariable(t *testing.T) {
	w := newWorld(1)
	// ${empty} expands to no fields: for runs zero iterations and
	// succeeds; forany with an empty list fails (no alternative won).
	if err := w.run(t, "for x in ${empty}\n  false\nend\n", nil); err != nil {
		t.Fatalf("empty for failed: %v", err)
	}
	if err := w.run(t, "forany x in ${empty}\n  true\nend\n", nil); err == nil {
		t.Fatal("empty forany succeeded")
	}
}

func TestForallEmptyListSucceeds(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "forall x in ${empty}\n  false\nend\n", nil); err != nil {
		t.Fatalf("empty forall failed: %v", err)
	}
}

func TestWhileConditionErrorFailsLoop(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "while pear .lt. 3\n  true\nend\n", nil); err == nil {
		t.Fatal("bad while condition succeeded")
	}
}

func TestWhileBodyFailureFailsLoop(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "n=0\nwhile ${n} .lt. 3\n  false\nend\n", nil); err == nil {
		t.Fatal("failing body did not fail the while")
	}
}

func TestElifConditionError(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "if 1 .eq. 2\n  a\nelif pear .lt. 1\n  b\nend\n", nil); err == nil {
		t.Fatal("bad elif condition succeeded")
	}
}

func TestWhileHonorsContextCancel(t *testing.T) {
	w := newWorld(1)
	w.eng.Schedule(time.Minute, func() {}) // keep engine alive
	var err error
	w.eng.Spawn("script", func(p *sim.Proc) {
		ctx, cancel := p.WithTimeout(w.eng.Context(), 10*time.Second)
		defer cancel()
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p, Stdout: &w.out})
		err = in.RunSource(ctx, "while true\n  sleep 1\nend\n")
	})
	if runErr := w.eng.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err == nil {
		t.Fatal("infinite while survived cancellation")
	}
}

func TestRunSourceParseError(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "try for 3 bogons\nx\nend\n", nil); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestNewPanicsWithoutRunnerOrRuntime(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("no runner", func() {
		interp.New(interp.Config{Runtime: core.NewReal(1)})
	})
	assertPanics("no runtime", func() {
		w := newWorld(1)
		interp.New(interp.Config{Runner: w.runner})
	})
}

func TestMemFSOperations(t *testing.T) {
	fs := interp.NewMemFS()
	fs.WriteFile("a", []byte("1"))
	fs.WriteFile("b", []byte("2"))
	if names := fs.Names(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
	fs.Remove("a")
	fs.Remove("a") // rm -f semantics
	if _, ok := fs.ReadFile("a"); ok {
		t.Fatal("removed file still present")
	}
	// Write-after-close is rejected.
	wtr, err := fs.OpenWrite("c", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := wtr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wtr.Close(); err != nil { // double close ok
		t.Fatal(err)
	}
	if _, err := wtr.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestRedirWithBadTargetExpansion(t *testing.T) {
	w := newWorld(1)
	// ${0} in a redirection target is an expansion error.
	if err := w.run(t, "echo hi > ${0}\n", nil); err == nil {
		t.Fatal("bad redirect target accepted")
	}
}

func TestForanyListExpansionError(t *testing.T) {
	w := newWorld(1)
	if err := w.run(t, "forany x in ${0}\n  true\nend\n", nil); err == nil {
		t.Fatal("bad list expansion accepted")
	}
}

func TestContextCanceledBeforeRun(t *testing.T) {
	w := newWorld(1)
	var err error
	w.eng.Spawn("script", func(p *sim.Proc) {
		ctx, cancel := p.WithCancel(w.eng.Context())
		cancel()
		in := interp.New(interp.Config{Runner: w.runner, Runtime: p})
		err = in.RunSource(ctx, "echo hi\n")
	})
	if runErr := w.eng.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
}

func TestRmBuiltin(t *testing.T) {
	w := newWorld(1)
	w.fs.WriteFile("a.tar.gz", []byte("x"))
	// Plain rm of an existing file succeeds; of a missing file fails;
	// -f is idempotent, as §4's catch example requires.
	if err := w.run(t, "rm a.tar.gz\n", nil); err != nil {
		t.Fatalf("rm existing: %v", err)
	}
	if _, ok := w.fs.ReadFile("a.tar.gz"); ok {
		t.Fatal("file survived rm")
	}
	if err := w.run(t, "rm a.tar.gz\n", nil); err == nil {
		t.Fatal("rm of missing file succeeded")
	}
	if err := w.run(t, "rm -f a.tar.gz\n", nil); err != nil {
		t.Fatalf("rm -f missing: %v", err)
	}
	if err := w.run(t, "rm\n", nil); err == nil {
		t.Fatal("rm with no operand succeeded")
	}
}

func TestPaperCatchExampleVerbatim(t *testing.T) {
	// §4's catch example, as printed in the paper.
	w := newWorld(1)
	gets := 0
	w.runner.Register("wget", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
		gets++
		w.fs.WriteFile("file.tar.gz", []byte("partial")) // failed partial download
		return core.ErrFailure
	})
	src := `try 5 times
  wget http://server/file.tar.gz
catch
  rm -f file.tar.gz
  failure
end
`
	if err := w.run(t, src, nil); err == nil {
		t.Fatal("script must fail after catch re-raises")
	}
	if gets != 5 {
		t.Fatalf("gets = %d", gets)
	}
	if _, ok := w.fs.ReadFile("file.tar.gz"); ok {
		t.Fatal("partial download not cleaned up by catch")
	}
}

// TestVariableReferenceSemantics pins what every form of variable
// reference expands to, in each kind of frame, quoted and unquoted. A
// name that strconv.Atoi accepts is positional — so a sign and leading
// zeros are, and a number below 1 is an error — and everything else,
// an overflowing digit string included, is an ordinary named variable.
func TestVariableReferenceSemantics(t *testing.T) {
	named := map[string]string{
		"x": "val", "007": "bond", "99999999999999999999": "big", "1x": "named",
		" 1": "spacey", "+2": "plus", "-1": "minus", "0": "zero", "00": "zeros",
	}
	const bad = "\x00invalid"
	cases := []struct {
		ref, name string
		// The value in a script frame with arguments (one, "two three"),
		// in a function frame with (a b c d e f seven), and with no
		// arguments at all.
		script, function, bare string
	}{
		{"$1", "1", "one", "a", ""},
		{"${1}", "1", "one", "a", ""},
		{"${2}", "2", "two three", "b", ""},
		{"${3}", "3", "", "c", ""},
		{"${+2}", "+2", "two three", "b", ""},
		{"${-1}", "-1", bad, bad, bad},
		{"${0}", "0", bad, bad, bad},
		{"${00}", "00", bad, bad, bad},
		{"${-0}", "-0", bad, bad, bad},
		{"${007}", "007", "", "seven", ""},
		{"${99999999999999999999}", "99999999999999999999", "big", "big", "big"},
		{"${1x}", "1x", "named", "named", "named"},
		{"$1x", "1x", "named", "named", "named"},
		{"${ 1}", " 1", "spacey", "spacey", "spacey"},
		{"${1_0}", "1_0", "", "", ""},
		{"$*", "*", "one two three", "a b c d e f seven", ""},
		{"${*}", "*", "one two three", "a b c d e f seven", ""},
		{"$#", "#", "2", "7", "0"},
		{"${#}", "#", "2", "7", "0"},
		{"${x}", "x", "val", "val", "val"},
		{"${unset}", "unset", "", "", ""},
	}
	frames := []struct {
		name string
		args []string
		src  string // %s is the probed word
		want func(i int) string
	}{
		{"script", []string{"one", "two three"}, "probe %s\n", func(i int) string { return cases[i].script }},
		{"function", []string{"one", "two three"}, "function f\n  probe %s\nend\nf a b c d e f seven\n", func(i int) string { return cases[i].function }},
		{"bare", nil, "probe %s\n", func(i int) string { return cases[i].bare }},
	}
	for i, c := range cases {
		for _, f := range frames {
			for _, quoted := range []bool{false, true} {
				word, want := c.ref, strings.Fields(f.want(i))
				if quoted {
					word, want = `"`+c.ref+`"`, []string{f.want(i)}
				}
				w := newWorld(1)
				var got []string
				w.runner.Register("probe", func(ctx context.Context, rt core.Runtime, cmd *interp.Command) error {
					got = append([]string{}, cmd.Args...)
					return nil
				})
				var err error
				w.eng.Spawn("script", func(p *sim.Proc) {
					in := interp.New(interp.Config{Runner: w.runner, Runtime: p})
					for k, v := range named {
						in.SetVar(k, v)
					}
					in.SetArgs(f.args)
					err = in.RunSource(w.eng.Context(), fmt.Sprintf(f.src, word))
				})
				if runErr := w.eng.Run(); runErr != nil {
					t.Fatal(runErr)
				}
				id := fmt.Sprintf("%s frame, %s", f.name, word)
				if f.want(i) == bad {
					if err == nil || !strings.Contains(err.Error(), "invalid positional parameter $"+c.name) {
						t.Errorf("%s: err = %v, want invalid positional parameter $%s", id, err, c.name)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", id, err)
				} else if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
					t.Errorf("%s: args = %q, want %q", id, got, want)
				}
			}
		}
	}
}

// TestNumbersBeyondPlainDigits pins what expr and the numeric
// comparisons accept and print on either side of the plain-digits short
// cut: everything strconv.ParseFloat reads is a number, and an integral
// result prints as an integer whatever it was read from.
func TestNumbersBeyondPlainDigits(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"expr 007 + 1", "8"},
		{"expr 999999999999999 + 1", "1000000000000000"},   // 15 digits: the longest short cut
		{"expr 9999999999999999 + 1", "10000000000000000"}, // 16: through ParseFloat, rounded there
		{"expr 99999999999999999999 + 0", "1e+20"},         // past int64
		{"expr 1e3 + 1", "1001"},
		{"expr 0x1p4 * 2", "32"},
		{"expr -3 + +5", "2"},
		{"expr 1_0 + 1", "11"}, // ParseFloat takes Go's digit separators
		{"expr 1.5 + 1.5", "3"},
		{"expr 10 / 4", "2.5"},
		{"expr 0 - 0", "0"},
		{"if 0x1p4 .lt. 17\n echo yes\nend", "yes"},
		{"if Inf .gt. 1e3\n echo yes\nend", "yes"},
		{"if 007 .eq. 7.0\n echo yes\nend", "yes"},
		{"if 000000000000000010 .eq. 10\n echo yes\nend", "yes"}, // 18 digits of zeros
	} {
		w := newWorld(1)
		if err := w.run(t, c.src+"\n", nil); err != nil {
			t.Errorf("%q: %v", c.src, err)
		} else if got := strings.TrimSpace(w.out.String()); got != c.want {
			t.Errorf("%q printed %q, want %q", c.src, got, c.want)
		}
	}
	for _, src := range []string{"expr ١ + 1", "if 1 .lt. x1\n true\nend", "expr '' + 1"} {
		if err := newWorld(1).run(t, src+"\n", nil); err == nil {
			t.Errorf("%q succeeded", src)
		}
	}
}
