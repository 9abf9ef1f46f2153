package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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
	fc := s.CounterFunc("c_total", "help", func() float64 { t.Fatal("fn called on nil scope"); return 0 })
	fg := s.GaugeFunc("fg", "help", func() float64 { t.Fatal("fn called on nil scope"); return 0 })
	s.Sample()
	if fc.Value() != 0 || fg.Value() != 0 {
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
	attempts, depth := 0, 0.0
	c := s.CounterFunc("grid_attempts_total", "attempts", func() float64 { return float64(attempts) })
	fg := s.GaugeFunc("grid_depth", "queue depth", func() float64 { return depth })

	attempts, depth = 3, 7
	if c.Value() != 0 || fg.Value() != 0 {
		t.Fatalf("polled before the first sample: %v, %v", c.Value(), fg.Value())
	}
	clk.t = 10 * time.Millisecond
	s.Sample()
	attempts, depth = 5, 1 // read at the next sample, not before

	if c.Value() != 3 {
		t.Fatalf("counter cached = %v, want 3", c.Value())
	}
	if fg.Value() != 7 {
		t.Fatalf("gauge cached = %v, want 7", fg.Value())
	}
	var names []string
	for _, f := range r.fams {
		for _, c := range f.children {
			names = append(names, c.series.Name)
		}
	}
	want := []string{`grid_attempts_total{disc=Ethernet}`, `grid_depth{disc=Ethernet}`}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("series = %v, want %v", names, want)
	}
	if got := r.CurrentTotal("grid_attempts_total"); got != 3 {
		t.Fatalf("CurrentTotal = %v, want 3", got)
	}
}

func TestMergeEqualsSerial(t *testing.T) {
	// Simulate one registry written by two "cells" serially versus two
	// per-cell registries merged in cell order: byte-identical JSONL.
	build := func(regs []*Registry) string {
		for cell, r := range regs {
			clk := &fakeClock{}
			s := r.NewScope(clk.now, "cell", fmt.Sprint(cell))
			events, wait := 0, 0.0
			s.CounterFunc("events_total", "events", func() float64 { return float64(events) })
			s.GaugeFunc("wait", "wait", func() float64 { return wait })
			for i := 0; i < 50; i++ {
				events++
				wait = float64(cell*100 + i)
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

// TestMergeSameIdentityFoldsValues: merging an instrument of the same
// identity appends its points after the receiver's and adopts its last
// sample.
func TestMergeSameIdentityFoldsValues(t *testing.T) {
	a, b := New(), New()
	clk := &fakeClock{t: time.Second}
	sa := a.NewScope(clk.now, "disc", "Aloha")
	sa.CounterFunc("n_total", "n", func() float64 { return 3 })
	sa.Sample()
	clk.t = 2 * time.Second
	sb := b.NewScope(clk.now, "disc", "Aloha")
	sb.CounterFunc("n_total", "n", func() float64 { return 7 })
	sb.Sample()
	a.Merge(b)
	if got := a.CurrentTotal("n_total"); got != 7 {
		t.Fatalf("merged counter total = %v, want 7", got)
	}
	var jb strings.Builder
	if err := a.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"points":[[1000000000,3],[2000000000,7]]`) {
		t.Fatalf("merged series did not fold the points in order: %s", jb.String())
	}
}

// TestGaugeFuncRegisteredTwicePanics: a polled instrument is its
// closure, so a second scope registering the same series must fail
// loudly instead of silently polling the first scope's state.
func TestGaugeFuncRegisteredTwicePanics(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	first := r.NewScope(clk.now, "cell", "fig1/Ethernet/n1")
	first.GaugeFunc("depth", "d", func() float64 { return 1 })
	// Another label value, and the same labels in another family, are
	// different series.
	r.NewScope(clk.now, "cell", "fig1/Ethernet/n2").GaugeFunc("depth", "d", func() float64 { return 2 })
	first.CounterFunc("width_total", "w", func() float64 { return 3 })
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
	s.CounterFunc("grid_attempts_total", "Total attempts.", func() float64 { return 5 })
	s.GaugeFunc("grid_busy", "Busy units.", func() float64 { return 0.5 }, "resource", "fds")
	s.Sample()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP grid_attempts_total Total attempts.\n" +
		"# TYPE grid_attempts_total counter\n" +
		`grid_attempts_total{disc="Ethernet"} 5` + "\n" +
		"# HELP grid_busy Busy units.\n" +
		"# TYPE grid_busy gauge\n" +
		`grid_busy{disc="Ethernet",resource="fds"} 0.5` + "\n"
	if b.String() != want {
		t.Fatalf("prom output:\n got %q\nwant %q", b.String(), want)
	}
}

func TestWriteJSONLAndCSV(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "fig", "2")
	occ, files := 0.5, 1
	s.GaugeFunc("occupancy", "carrier occupancy", func() float64 { return occ })
	s.CounterFunc("files_total", "files written", func() float64 { return float64(files) })
	clk.t = time.Second
	s.Sample()
	occ, files = 0.75, 4
	clk.t = 2 * time.Second
	s.Sample()

	var jb strings.Builder
	if err := r.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"name":"occupancy{fig=2}","family":"occupancy","kind":"gauge","labels":{"fig":"2"},"points":[[1000000000,0.5],[2000000000,0.75]]}` + "\n" +
		`{"name":"files_total{fig=2}","family":"files_total","kind":"counter","labels":{"fig":"2"},"points":[[1000000000,1],[2000000000,4]]}` + "\n"
	if jb.String() != wantJSON {
		t.Fatalf("jsonl:\n got %q\nwant %q", jb.String(), wantJSON)
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	wantCSV := "series,t_ns,value\n" +
		"occupancy{fig=2},1000000000,0.5\n" +
		"occupancy{fig=2},2000000000,0.75\n" +
		"files_total{fig=2},1000000000,1\n" +
		"files_total{fig=2},2000000000,4\n"
	if cb.String() != wantCSV {
		t.Fatalf("csv:\n got %q\nwant %q", cb.String(), wantCSV)
	}
}

func TestSeriesCapAppliesToSampledSeries(t *testing.T) {
	r := New()
	r.SetSeriesCap(64)
	clk := &fakeClock{}
	s := r.NewScope(clk.now)
	i := 0
	s.CounterFunc("g_total", "g", func() float64 { return float64(i) })
	for ; i < 100000; i++ {
		clk.t += time.Millisecond
		s.Sample()
	}
	r.mu.Lock()
	n := len(r.fams[0].children[0].series.Points)
	r.mu.Unlock()
	if n > 64 {
		t.Fatalf("sampled series grew to %d points, cap 64", n)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "disc", "Ethernet")
	s.CounterFunc("grid_attempts_total", "attempts", func() float64 { return 9 })
	s.Sample()
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
	// Live-backend shape: several goroutines advance the state the
	// instruments read (under the host's lock) while others sample and
	// export. Run under -race in CI.
	r := New()
	clk := &fakeClock{}
	s := r.NewScope(clk.now, "cell", "0")
	var host sync.Mutex // the engine token / gridd monitor
	var n int64
	var level atomic.Int64
	s.CounterFunc("c_total", "c", func() float64 { return float64(n) })
	s.GaugeFunc("g", "g", func() float64 { return float64(level.Load()) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				host.Lock()
				n++
				host.Unlock()
				level.Add(1)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			host.Lock() // host lock, then registry lock
			s.Sample()
			host.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			_ = r.WriteProm(io.Discard)
			_ = r.CurrentTotal("c_total")
		}
	}()
	wg.Wait()
	host.Lock()
	s.Sample()
	host.Unlock()
	if got := r.CurrentTotal("c_total"); got != 20000 {
		t.Fatalf("counter = %v, want 20000", got)
	}
}
