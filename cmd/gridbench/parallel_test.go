package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/expt"
)

// TestParallelDeterminism is the acceptance check for the parallel
// sweep runner: for every figure of the table that the sim backend runs
// and three distinct seeds, the full
// CLI output (tables, banners, totals), the trace summary, and the
// flight-recorder metrics dump at -parallel 8 must be byte-identical
// to the forced-serial run.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at two parallelism levels and three seeds")
	}
	for _, seed := range []string{"1", "7", "42"} {
		for _, fig := range figureNames(func(f *figure) bool { return slices.Contains(f.on(), expt.BackendSim) }) {
			t.Run(fmt.Sprintf("fig%s/seed%s", fig, seed), func(t *testing.T) {
				dir := t.TempDir()
				m1 := filepath.Join(dir, "serial.jsonl")
				m8 := filepath.Join(dir, "parallel.jsonl")
				args := []string{"-fig", fig, "-scale", "0.1", "-seed", seed, "-trace-summary", "-check"}
				c1, serial, e1 := cli(t, append(args, "-parallel", "1", "-metrics", m1)...)
				c8, par, e8 := cli(t, append(args, "-parallel", "8", "-metrics", m8)...)
				if c1 != 0 || c8 != 0 {
					t.Fatalf("codes %d/%d stderr %q %q", c1, c8, e1, e8)
				}
				if stripTiming(serial) != stripTiming(par) {
					t.Errorf("-parallel 8 output drifted from -parallel 1.\nserial:\n%s\nparallel:\n%s",
						stripTiming(serial), stripTiming(par))
				}
				b1, err := os.ReadFile(m1)
				if err != nil {
					t.Fatal(err)
				}
				b8, err := os.ReadFile(m8)
				if err != nil {
					t.Fatal(err)
				}
				if len(b1) == 0 {
					t.Error("serial metrics dump is empty")
				}
				if !bytes.Equal(b1, b8) {
					t.Errorf("-parallel 8 metrics dump drifted from -parallel 1 (%d vs %d bytes)", len(b1), len(b8))
				}
			})
		}
	}
}

// TestProfileFlags smoke-tests -cpuprofile and -memprofile: the run
// must succeed and leave non-empty pprof files behind.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, errOut := cli(t, "-fig", "1", "-scale", "0.1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
