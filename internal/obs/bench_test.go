package obs

import (
	"io"
	"testing"
	"time"
)

// The nil-instrument path is the always-on cost paid by every
// instrumented hot loop when observability is off.
// TestNilHotPathZeroAlloc asserts it stays at 0 allocs/op as a plain
// test, so `go test` (and `make race`) catches regressions.

func TestNilHotPathZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("nil Counter: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(2); g.Inc(); g.Dec() }); n != 0 {
		t.Fatalf("nil Gauge: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1.5) }); n != 0 {
		t.Fatalf("nil Histogram: %v allocs/op, want 0", n)
	}
	var s *Scope
	if n := testing.AllocsPerRun(1000, func() { s.Sample() }); n != 0 {
		t.Fatalf("nil Scope.Sample: %v allocs/op, want 0", n)
	}
}

func TestEnabledHotPathZeroAlloc(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	sc := r.NewScope(clk.now)
	c := sc.Counter("c_total", "c")
	g := sc.Gauge("g", "g")
	h := sc.Histogram("h", "h")
	// Warm the reservoir past its growth phase.
	for i := 0; i < 2048; i++ {
		h.Observe(float64(i))
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("enabled Counter.Inc: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(2) }); n != 0 {
		t.Fatalf("enabled Gauge.Set: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Fatalf("enabled Histogram.Observe: %v allocs/op, want 0", n)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilGaugeSet(b *testing.B) {
	var g *Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.NewScope(func() time.Duration { return 0 }).Counter("c_total", "c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	r := New()
	g := r.NewScope(func() time.Duration { return 0 }).Gauge("g", "g")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.NewScope(func() time.Duration { return 0 }).Histogram("h", "h")
	for i := 0; i < 2048; i++ {
		h.Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkScopeSample(b *testing.B) {
	r := New()
	clk := &fakeClock{}
	sc := r.NewScope(clk.now, "disc", "Ethernet")
	sc.Counter("c_total", "c").Inc()
	sc.Gauge("g", "g").Set(1)
	sc.GaugeFunc("fg", "fg", func() float64 { return 2 })
	h := sc.Histogram("h", "h")
	for i := 0; i < 1024; i++ {
		h.Observe(float64(i))
	}
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
		sc.Counter("c_total", "c").Add(int64(i))
		sc.Gauge("g", "g").Set(float64(i))
		h := sc.Histogram("h", "h")
		for j := 0; j < 256; j++ {
			h.Observe(float64(j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.WriteProm(io.Discard)
	}
}
