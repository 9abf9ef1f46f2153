package main

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/gridd"
)

func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSingleFigure(t *testing.T) {
	code, out, errOut := cli(t, "-fig", "7", "-scale", "0.2")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"Figure 7", "transfers", "deferrals", "totals:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("out missing %q:\n%s", want, out)
		}
	}
}

func TestTSVFormat(t *testing.T) {
	code, out, _ := cli(t, "-fig", "6", "-scale", "0.2", "-format", "tsv")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "t(s)\ttransfers\tcollisions") {
		t.Fatalf("no TSV header:\n%s", out)
	}
}

func TestBadFigure(t *testing.T) {
	code, _, errOut := cli(t, "-fig", "9")
	if code != 2 || !strings.Contains(errOut, "no such figure") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestFigureTableIsTheOnlyList: the texts and runs that name figures
// are derived from the table, so each names exactly its rows — every
// row in the -fig usage and in the error for an unknown figure, and the
// default rows, in table order, in a run without -fig.
func TestFigureTableIsTheOnlyList(t *testing.T) {
	all := strings.Join(figureNames(func(*figure) bool { return true }), ", ")
	_, _, usage := cli(t, "-h")
	if !strings.Contains(usage, "figure to regenerate ("+all+")") {
		t.Errorf("-fig usage does not list exactly %s:\n%s", all, usage)
	}
	_, _, errOut := cli(t, "-fig", "no-such")
	var listed []string
	for _, line := range strings.Split(errOut, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			listed = append(listed, f[0])
		}
	}
	if got := strings.Join(listed, ", "); got != all {
		t.Errorf("unknown-figure error lists %q, want %q", got, all)
	}
	if testing.Short() {
		return // the rest is an all-figure run
	}
	code, out, errOut := cli(t, "-scale", "0.05")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	var banners, want []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "==== Figure ") {
			banners = append(banners, line)
		}
	}
	for i := range figures {
		if f := &figures[i]; !f.extra {
			want = append(want, "==== Figure "+strings.ToUpper(f.name)+": "+f.title+" ====")
		}
	}
	if strings.Join(banners, "\n") != strings.Join(want, "\n") {
		t.Errorf("default run printed banners\n%s\nwant\n%s", strings.Join(banners, "\n"), strings.Join(want, "\n"))
	}
}

func TestBadFormat(t *testing.T) {
	code, _, errOut := cli(t, "-format", "xml")
	if code != 2 || !strings.Contains(errOut, "unknown format") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestBadBackend(t *testing.T) {
	code, _, errOut := cli(t, "-backend", "quantum")
	if code != 2 || !strings.Contains(errOut, "unknown backend") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	// The error advertises the full registry, so a typo'd name shows
	// every spelling that would have worked.
	for _, b := range expt.Backends() {
		if !strings.Contains(errOut, b) {
			t.Fatalf("backend error does not list %q: %q", b, errOut)
		}
	}
}

// The gridd backend serves the figures of the scenarios whose FD table
// it can host, and only those.
func TestGriddBackendServesOnlyFigGridd(t *testing.T) {
	code, _, errOut := cli(t, "-backend", "gridd", "-fig", "4")
	if code != 2 || !strings.Contains(errOut, "-backend=gridd serves only -fig 1, 2, 3, la") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	code, _, errOut = cli(t, "-gridd-addr", "http://localhost:1", "-fig", "1")
	if code != 2 || !strings.Contains(errOut, "-gridd-addr needs -backend=gridd") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestGriddBackendFigure3 runs the Ethernet timeline with its FD
// table on a daemon across a real socket (-gridd-addr), on a live
// engine: the same scenario the sim golden pins, so it must submit.
func TestGriddBackendFigure3(t *testing.T) {
	hs := httptest.NewServer(gridd.NewServer(gridd.Config{}).Handler())
	defer hs.Close()
	code, out, errOut := cli(t, "-fig", "3", "-scale", "0.05", "-backend", "gridd", "-gridd-addr", hs.URL)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	var jobs float64
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] != "t(s)" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				jobs = v
			}
		}
	}
	if !strings.Contains(out, "Figure 3") || jobs == 0 {
		t.Fatalf("no table with Ethernet jobs:\n%s", out)
	}
}

func TestNegativeParallel(t *testing.T) {
	code, _, errOut := cli(t, "-parallel", "-3")
	if code != 2 || !strings.Contains(errOut, "negative parallel") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestNegativeTimescale(t *testing.T) {
	code, _, errOut := cli(t, "-timescale", "-10")
	if code != 2 || !strings.Contains(errOut, "negative timescale") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestLiveBackendSingleFigure(t *testing.T) {
	// One scenario end-to-end on the wall-clock backend, heavily
	// compressed so the 900-virtual-second reader window stays fast.
	code, out, errOut := cli(t, "-backend", "live", "-timescale", "20000", "-fig", "7", "-scale", "0.2")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"Figure 7", "transfers", "totals:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("out missing %q:\n%s", want, out)
		}
	}
}

func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-shards", "8"}, // a knob this CLI once had: now unknown like any other
	} {
		if code, _, _ := cli(t, args...); code != 2 {
			t.Errorf("%v: code = %d, want 2", args, code)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, a, _ := cli(t, "-fig", "6", "-scale", "0.3")
	_, b, _ := cli(t, "-fig", "6", "-scale", "0.3")
	// Strip the timing comment lines, which legitimately vary.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "# generated in") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(a) != strip(b) {
		t.Fatal("same seed produced different figure data")
	}
}

func TestAllFiguresSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("all-figure run; skipped in -short")
	}
	code, out, errOut := cli(t, "-scale", "0.1")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for i := 1; i <= 7; i++ {
		if !strings.Contains(out, "Figure "+string(rune('0'+i))) {
			t.Fatalf("missing Figure %d", i)
		}
	}
}
