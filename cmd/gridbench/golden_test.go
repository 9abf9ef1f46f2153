package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// stripTiming drops the "# generated in ..." and "# timing: ..."
// comment lines, the only legitimately nondeterministic parts of
// gridbench output (wall-clock measurements).
func stripTiming(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "# generated in") && !strings.HasPrefix(line, "# timing:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// golden runs the CLI and compares its stripped output against
// testdata/<name>.golden, rewriting the file under -update.
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	code, out, errOut := cli(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	got := stripTiming(out)
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/gridbench -run TestGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\nIf the change is intentional, rerun with -update.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestGoldenFigures checks every golden file the figure table declares:
// the exact seed-1 output of each figure — in both formats and under a
// fault plan for one of them — so any change to simulation order, RNG
// consumption, or rendering shows up here as a diff. Figures 2 and 3
// also run on the gridd backend against the sim's files: the daemon on
// the cell's engine, reached through its codec, changes nothing.
func TestGoldenFigures(t *testing.T) {
	for i := range figures {
		f := &figures[i]
		if len(f.goldens) == 0 {
			t.Errorf("figure %s declares no golden run", f.name)
		}
		for _, g := range f.goldens {
			file, argv := f.goldenRun(g)
			t.Run(file, func(t *testing.T) { golden(t, file, argv...) })
		}
	}
}

// The names these goldens were tested under before the figure table
// existed. The repository's test floor refers to tests by name and lets
// a change rename only a few of them, so they stay, as aliases that
// look their run up in the table; drop them when the floor is next
// re-anchored.
func TestGoldenFig1Table(t *testing.T)     { goldenAlias(t, "fig1_table") }
func TestGoldenFig4Table(t *testing.T)     { goldenAlias(t, "fig4_table") }
func TestGoldenFig7Table(t *testing.T)     { goldenAlias(t, "fig7_table") }
func TestGoldenFig7TSV(t *testing.T)       { goldenAlias(t, "fig7_tsv") }
func TestGoldenFig7Chaos(t *testing.T)     { goldenAlias(t, "fig7_chaos") }
func TestGoldenFigLATable(t *testing.T)    { goldenAlias(t, "figla_table") }
func TestGoldenFigResTable(t *testing.T)   { goldenAlias(t, "figres_table") }
func TestGoldenFigNetTable(t *testing.T)   { goldenAlias(t, "fignet_table") }
func TestGoldenFigScaleTable(t *testing.T) { goldenAlias(t, "figscale_table") }
func TestGoldenFigGridd(t *testing.T)      { goldenAlias(t, "fig3_table -scale 0.1 -backend gridd") }

// goldenAlias runs the first golden run the table declares for run: a
// golden file's name, or a whole golden ("file args...").
func goldenAlias(t *testing.T, run string) {
	t.Helper()
	for i := range figures {
		for _, g := range figures[i].goldens {
			if f, argv := figures[i].goldenRun(g); f == run || g == run {
				golden(t, f, argv...)
				return
			}
		}
	}
	t.Fatalf("no figure declares a golden run %q", run)
}

// goldenRun splits one of f's goldens ("file args...") into the golden
// file's name and the command line that produces it.
func (f *figure) goldenRun(g string) (file string, argv []string) {
	file, args, _ := strings.Cut(g, " ")
	return file, append([]string{"-fig", f.name}, strings.Fields(args)...)
}

func TestDeterministicWithChaos(t *testing.T) {
	args := []string{"-fig", "3", "-scale", "0.1", "-chaos", "mixed", "-check"}
	c1, a, e1 := cli(t, args...)
	c2, b, e2 := cli(t, args...)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("codes %d/%d stderr %q %q", c1, c2, e1, e2)
	}
	if stripTiming(a) != stripTiming(b) {
		t.Fatal("same seed and chaos plan produced different figure data")
	}
	// An explicit chaos seed distinct from the sim seed must change the
	// fault schedule (and thus, for this figure, the data).
	_, c, _ := cli(t, "-fig", "3", "-scale", "0.1", "-chaos", "mixed", "-chaos-seed", "99")
	if stripTiming(a) == stripTiming(c) {
		t.Error("different chaos seeds produced identical output")
	}
}

func TestChaosUnknownPlan(t *testing.T) {
	code, _, errOut := cli(t, "-chaos", "no-such-plan")
	if code != 2 || !strings.Contains(errOut, "no-such-plan") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestChaosBannerAndCheck(t *testing.T) {
	code, out, errOut := cli(t, "-fig", "7", "-scale", "0.2", "-chaos", "flap", "-check")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "# chaos: plan flap, seed 1") {
		t.Errorf("missing chaos banner:\n%s", out)
	}
	if !strings.Contains(out, "# invariants: ok") {
		t.Errorf("missing invariant verdict:\n%s", out)
	}
}
