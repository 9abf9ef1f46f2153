package interp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/proc"
	"repro/internal/sim"
)

// BenchmarkInterpLoop measures interpreter statement throughput on a
// counting loop with expr and a condition per iteration, on a fresh
// simulator each time (the tree is parsed once).
func BenchmarkInterpLoop(b *testing.B) {
	script, err := parser.Parse(loopSrc)
	if err != nil {
		b.Fatal(err)
	}
	runner := proc.NewMapRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runOnSim(b, func(e *sim.Engine, p *sim.Proc) error {
			in := interp.New(interp.Config{Runner: runner, Runtime: p})
			return in.Run(e.Context(), script)
		})
	}
	b.ReportMetric(2000, "stmts/op")
}

// BenchmarkConformancePass parses and runs every script of testdata/
// in the fresh world TestConformanceCorpus gives it: what a pass of the
// benchmark's ftsh-corpus workload does, less the counting loop above.
// Sub-benchmark "pass" runs the whole corpus per iteration; the others
// run one member each, which is where a pass's time goes script by
// script. `make profile-ftsh` profiles them.
func BenchmarkConformancePass(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ftsh"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no conformance corpus: %v", err)
	}
	names := make([]string, len(files))
	srcs := make([]string, len(files))
	for i, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		names[i] = strings.TrimSuffix(filepath.Base(file), ".ftsh")
		srcs[i] = string(src)
	}
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				_ = corpusWorld(1).run(b, src, nil) // the corpus has scripts that must fail
			}
		}
		b.ReportMetric(float64(len(srcs)), "scripts/op")
	})
	for i, name := range names {
		src := srcs[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = corpusWorld(1).run(b, src, nil)
			}
		})
	}
}

// recursionSrc counts down through recursionDepth nested calls of a
// function and returns: deep calls that succeed, unlike recursion.ftsh's,
// which fail at maxCallDepth.
const (
	recursionDepth = 150
	recursionSrc   = `function down
  if ${1} .gt. 0
    expr ${1} - 1 -> n
    down ${n}
  end
end
down 150
`
)

// BenchmarkRecursion measures a call level: a fresh interpreter on a
// fresh simulator descends recursionDepth levels, each a function call
// with one argument, a condition and an expr. The coroutine's stack
// grows with the depth, so the per-level frame size is part of the cost.
func BenchmarkRecursion(b *testing.B) {
	script, err := parser.Parse(recursionSrc)
	if err != nil {
		b.Fatal(err)
	}
	runner := proc.NewMapRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runOnSim(b, func(e *sim.Engine, p *sim.Proc) error {
			in := interp.New(interp.Config{Runner: runner, Runtime: p})
			return in.Run(e.Context(), script)
		})
	}
	b.ReportMetric(recursionDepth, "levels/op")
}
