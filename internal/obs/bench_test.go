package obs

import (
	"io"
	"testing"
	"time"
)

// Every instrument is polled, so no hot path calls into obs at all:
// the recorder's only costs are registration (once per cell or
// resource) and Sample (once per metrics interval). The nil path —
// observability off — must stay free: TestNilHotPathZeroAlloc asserts
// it as a plain test, so `go test` (and `make race`) catches
// regressions.

func TestNilHotPathZeroAlloc(t *testing.T) {
	var r *Registry
	var s *Scope
	fn := func() float64 { return 1 }
	clock := func() time.Duration { return 0 }
	if n := testing.AllocsPerRun(1000, func() { _ = r.NewScope(clock) }); n != 0 {
		t.Fatalf("nil Registry.NewScope: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.CounterFunc("c_total", "c", fn)
		s.GaugeFunc("g", "g", fn)
	}); n != 0 {
		t.Fatalf("nil Scope.CounterFunc/GaugeFunc: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Sample() }); n != 0 {
		t.Fatalf("nil Scope.Sample: %v allocs/op, want 0", n)
	}
	var p *Polled
	if n := testing.AllocsPerRun(1000, func() { _ = p.Value() }); n != 0 {
		t.Fatalf("nil Polled.Value: %v allocs/op, want 0", n)
	}
}

func BenchmarkScopeSample(b *testing.B) {
	r := New()
	clk := &fakeClock{}
	sc := r.NewScope(clk.now, "disc", "Ethernet")
	sc.CounterFunc("c_total", "c", func() float64 { return 1 })
	sc.GaugeFunc("g", "g", func() float64 { return 2 })
	sc.GaugeFunc("fg", "fg", func() float64 { return 3 }, "resource", "fds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.t += time.Millisecond
		sc.Sample()
	}
}

func BenchmarkWriteProm(b *testing.B) {
	r := New()
	clk := &fakeClock{}
	for i := 0; i < 8; i++ {
		sc := r.NewScope(clk.now, "cell", string(rune('a'+i)))
		v := float64(i)
		sc.CounterFunc("c_total", "c", func() float64 { return v })
		sc.GaugeFunc("g", "g", func() float64 { return v / 2 })
		sc.Sample()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.WriteProm(io.Discard)
	}
}
