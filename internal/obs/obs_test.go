package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-cranked scope clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	s := r.NewScope(func() time.Duration { return 0 }, "cell", "x")
	if s != nil {
		t.Fatalf("nil registry produced non-nil scope")
	}
	c := s.Counter("c_total", "help")
	g := s.Gauge("g", "help")
	fg := s.GaugeFunc("fg", "help", func() float64 { t.Fatal("fn called on nil scope"); return 0 })
	h := s.Histogram("h", "help")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.Inc()
	g.Dec()
	h.Observe(1.5)
	s.Sample()
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil instruments reported values")
	}
	if err := r.WriteProm(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := r.CurrentTotal("c_total"); got != 0 {
		t.Fatalf("CurrentTotal on nil = %v", got)
	}
	r.Merge(New()) // must not panic
}

func TestScopeSampleAndSeries(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "disc", "Ethernet")
	c := s.Counter("grid_attempts_total", "attempts")
	g := s.Gauge("grid_busy", "busy units")
	depth := 0.0
	fg := s.GaugeFunc("grid_depth", "queue depth", func() float64 { return depth })
	h := s.Histogram("grid_wait_seconds", "wait time")

	c.Inc()
	c.Add(2)
	g.Set(4)
	g.Dec()
	depth = 7
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	clk.t = 10 * time.Millisecond
	s.Sample()

	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
	if fg.Value() != 7 {
		t.Fatalf("func gauge cached = %v, want 7", fg.Value())
	}
	if got := h.Quantile(0.5); got < 49 || got > 52 {
		t.Fatalf("histogram p50 = %v, want ~50", got)
	}
	names := r.SeriesNames()
	want := []string{
		`grid_attempts_total{disc=Ethernet}`,
		`grid_busy{disc=Ethernet}`,
		`grid_depth{disc=Ethernet}`,
		`grid_wait_seconds_p50{disc=Ethernet}`,
		`grid_wait_seconds_p95{disc=Ethernet}`,
		`grid_wait_seconds_p99{disc=Ethernet}`,
		`grid_wait_seconds_count{disc=Ethernet}`,
	}
	if len(names) != len(want) {
		t.Fatalf("series = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("series[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if got := r.CurrentTotal("grid_attempts_total"); got != 3 {
		t.Fatalf("CurrentTotal = %v, want 3", got)
	}
	// A second registration with the same labels returns the same child.
	if c2 := s.Counter("grid_attempts_total", "attempts"); c2 != c {
		t.Fatalf("re-registration minted a new counter")
	}
}

func TestMergeEqualsSerial(t *testing.T) {
	// Simulate one registry written by two "cells" serially versus two
	// per-cell registries merged in cell order: byte-identical JSONL.
	build := func(regs []*Registry) string {
		for cell, r := range regs {
			clk := &fakeClock{}
			s := r.NewScope(clk.now, "cell", fmt.Sprint(cell))
			c := s.Counter("events_total", "events")
			h := s.Histogram("wait", "wait")
			for i := 0; i < 50; i++ {
				c.Inc()
				h.Observe(float64(cell*100 + i))
				clk.t += time.Millisecond
				s.Sample()
			}
		}
		parent := regs[0]
		for _, r := range regs[1:] {
			if r != parent {
				parent.Merge(r)
			}
		}
		var b strings.Builder
		if err := parent.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := New()
	got1 := build([]*Registry{serial, serial}) // same registry twice = serial order
	got2 := build([]*Registry{New(), New()})   // per-cell, then merged
	if got1 != got2 {
		t.Fatalf("merged dump differs from serial dump:\nserial:\n%s\nmerged:\n%s", got1, got2)
	}
}

func TestMergeSameIdentityFoldsValues(t *testing.T) {
	a, b := New(), New()
	clk := &fakeClock{}
	sa := a.NewScope(clk.now, "disc", "Aloha")
	sb := b.NewScope(clk.now, "disc", "Aloha")
	sa.Counter("n_total", "n").Add(3)
	sb.Counter("n_total", "n").Add(4)
	a.Merge(b)
	if got := a.CurrentTotal("n_total"); got != 7 {
		t.Fatalf("merged counter total = %v, want 7", got)
	}
}

// TestGaugeFuncRegisteredTwicePanics: a polled gauge is its closure, so
// a second scope registering the same series must fail loudly instead
// of silently polling the first scope's state (find-or-create is right
// for counters, which TestMergeSameIdentityFoldsValues pins).
func TestGaugeFuncRegisteredTwicePanics(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	first := r.NewScope(clk.now, "cell", "fig1/Ethernet/n1")
	first.GaugeFunc("depth", "d", func() float64 { return 1 })
	// Another label value, and the same labels in another family, are
	// different series.
	r.NewScope(clk.now, "cell", "fig1/Ethernet/n2").GaugeFunc("depth", "d", func() float64 { return 2 })
	first.GaugeFunc("width", "w", func() float64 { return 3 })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "depth{cell=fig1/Ethernet/n1}") {
			t.Fatalf("second registration recovered %q, want a panic naming the series", msg)
		}
	}()
	r.NewScope(clk.now, "cell", "fig1/Ethernet/n1").GaugeFunc("depth", "d", func() float64 { return 4 })
	t.Fatal("second registration of depth{cell=fig1/Ethernet/n1} did not panic")
}

func TestWriteProm(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "disc", "Ethernet")
	s.Counter("grid_attempts_total", "Total attempts.").Add(5)
	h := s.Histogram("grid_wait", "Wait time.")
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP grid_attempts_total Total attempts.",
		"# TYPE grid_attempts_total counter",
		`grid_attempts_total{disc="Ethernet"} 5`,
		"# TYPE grid_wait summary",
		`grid_wait{disc="Ethernet",quantile="0.5"}`,
		`grid_wait_sum{disc="Ethernet"} 55`,
		`grid_wait_count{disc="Ethernet"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONLAndCSV(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "fig", "2")
	g := s.Gauge("occupancy", "carrier occupancy")
	g.Set(0.5)
	clk.t = time.Second
	s.Sample()
	g.Set(0.75)
	clk.t = 2 * time.Second
	s.Sample()

	var jb strings.Builder
	if err := r.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"name":"occupancy{fig=2}","family":"occupancy","kind":"gauge","labels":{"fig":"2"},"points":[[1000000000,0.5],[2000000000,0.75]]}` + "\n"
	if jb.String() != wantJSON {
		t.Fatalf("jsonl:\n got %q\nwant %q", jb.String(), wantJSON)
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	wantCSV := "series,t_ns,value\n" +
		"occupancy{fig=2},1000000000,0.5\n" +
		"occupancy{fig=2},2000000000,0.75\n"
	if cb.String() != wantCSV {
		t.Fatalf("csv:\n got %q\nwant %q", cb.String(), wantCSV)
	}
}

func TestSeriesCapAppliesToSampledSeries(t *testing.T) {
	r := New()
	r.SetSeriesCap(64)
	clk := &fakeClock{}
	s := r.NewScope(clk.now)
	g := s.Gauge("g", "g")
	for i := 0; i < 100000; i++ {
		g.Set(float64(i))
		clk.t += time.Millisecond
		s.Sample()
	}
	r.mu.Lock()
	n := len(r.fams[0].children[0].allSeries()[0].Points)
	r.mu.Unlock()
	if n > 64 {
		t.Fatalf("sampled series grew to %d points, cap 64", n)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "disc", "Ethernet")
	s.Counter("grid_attempts_total", "attempts").Add(9)
	srv, err := Serve("127.0.0.1:0", r, func() map[string]string {
		return map[string]string{"backend": "live", "fig": "1"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, `grid_attempts_total{disc="Ethernet"} 9`) {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	hz := get("/healthz")
	for _, want := range []string{`"status":"ok"`, `"backend":"live"`, `"fig":"1"`, `"series":1`} {
		if !strings.Contains(hz, want) {
			t.Fatalf("/healthz missing %q: %s", want, hz)
		}
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestConcurrentWritesWithExposition(t *testing.T) {
	// Live-backend shape: several goroutines hammer shared instruments
	// while another samples and a third exports. Run under -race in CI.
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "cell", "0")
	c := s.Counter("c_total", "c")
	g := s.Gauge("g", "g")
	h := s.Histogram("h", "h")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			for j := 0; j < 5000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i * j % 97))
			}
			done <- struct{}{}
		}(i)
	}
	go func() {
		for j := 0; j < 200; j++ {
			s.Sample()
			_ = r.WriteProm(io.Discard)
			_ = r.CurrentTotal("c_total")
		}
		done <- struct{}{}
	}()
	for i := 0; i < 5; i++ {
		<-done
	}
	if c.Value() != 20000 {
		t.Fatalf("counter = %d, want 20000", c.Value())
	}
}
