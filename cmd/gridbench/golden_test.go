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

// The golden files pin the exact seed-1 output of a representative
// figure from each scenario, in both formats, with and without a fault
// plan. Any change to simulation order, RNG consumption, or rendering
// shows up here as a diff.
func TestGoldenFig1Table(t *testing.T) { golden(t, "fig1_table", "-fig", "1", "-scale", "0.1") }
func TestGoldenFig4Table(t *testing.T) { golden(t, "fig4_table", "-fig", "4", "-scale", "0.1") }
func TestGoldenFig7Table(t *testing.T) { golden(t, "fig7_table", "-fig", "7", "-scale", "0.2") }
func TestGoldenFig7TSV(t *testing.T) {
	golden(t, "fig7_tsv", "-fig", "7", "-scale", "0.2", "-format", "tsv")
}
func TestGoldenFig7Chaos(t *testing.T) {
	golden(t, "fig7_chaos", "-fig", "7", "-scale", "0.2", "-chaos", "mixed", "-check")
}
func TestGoldenFigLATable(t *testing.T) { golden(t, "figla_table", "-fig", "la", "-scale", "0.1") }
func TestGoldenFigResTable(t *testing.T) {
	golden(t, "figres_table", "-fig", "res", "-scale", "0.1")
}
func TestGoldenFigNetTable(t *testing.T) {
	golden(t, "fignet_table", "-fig", "net", "-scale", "0.1")
}
func TestGoldenFigScaleTable(t *testing.T) {
	golden(t, "figscale_table", "-fig", "scale", "-scale", "0.01")
}

// TestGoldenFigGridd pins the wire-protocol conformance checklist: a
// real daemon is spawned in-process and every "ok" line is a property
// proven over the socket, so the golden is deterministic despite the
// live HTTP transport.
func TestGoldenFigGridd(t *testing.T) {
	golden(t, "figgridd", "-fig", "gridd", "-backend", "gridd")
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
