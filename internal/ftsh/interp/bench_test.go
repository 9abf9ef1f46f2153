package interp_test

import (
	"os"
	"path/filepath"
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
// once per iteration, each in the fresh world TestConformanceCorpus
// gives it: what a pass of the benchmark's ftsh-corpus workload does,
// less the counting loop above. `make profile-ftsh` profiles the two.
func BenchmarkConformancePass(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ftsh"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no conformance corpus: %v", err)
	}
	var srcs []string
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			_ = corpusWorld(1).run(b, src, nil) // the corpus has scripts that must fail
		}
	}
	b.ReportMetric(float64(len(srcs)), "scripts/op")
}
