package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("jobs")
	s.Add(1*time.Second, 10)
	s.Add(2*time.Second, 30)
	s.Add(3*time.Second, 20)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Max() != 30 || s.Min() != 10 {
		t.Fatalf("Max/Min = %v/%v", s.Max(), s.Min())
	}
	if s.Mean() != 20 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Last().V != 20 {
		t.Fatalf("Last = %v", s.Last())
	}
}

func TestSeriesAtStepFunction(t *testing.T) {
	s := NewSeries("x")
	s.Add(10*time.Second, 1)
	s.Add(20*time.Second, 2)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0}, {9 * time.Second, 0}, {10 * time.Second, 1},
		{15 * time.Second, 1}, {20 * time.Second, 2}, {time.Hour, 2},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("e")
	if s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 || s.At(time.Hour) != 0 {
		t.Fatal("empty series should report zeros")
	}
	if p := s.Last(); p.V != 0 || p.T != 0 {
		t.Fatalf("Last = %v", p)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if h.Count != 8 || h.Mean() != 5 {
		t.Fatalf("count=%d mean=%v", h.Count, h.Mean())
	}
	if math.Abs(h.Stddev()-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", h.Stddev())
	}
	if h.Min() != 2 || h.Max() != 9 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("e")
	if h.Mean() != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// The raw fields are ±Inf before any Observe; the accessors must not
	// leak that sentinel state.
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty min/max = %v/%v, want 0/0", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("lat")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if p := h.P50(); math.Abs(p-50.5) > 1 {
		t.Errorf("P50 = %v, want ~50.5", p)
	}
	if p := h.P95(); math.Abs(p-95) > 1.5 {
		t.Errorf("P95 = %v, want ~95", p)
	}
	if p := h.P99(); math.Abs(p-99) > 1.5 {
		t.Errorf("P99 = %v, want ~99", p)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Errorf("Quantile(0)/Quantile(1) = %v/%v, want 1/100", h.Quantile(0), h.Quantile(1))
	}
	if NewHistogram("e").P99() != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// The reservoir must be bounded, deterministic, and still representative
// past ReservoirSize observations.
func TestHistogramReservoirBoundedDeterministic(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	n := 50 * ReservoirSize
	for i := 0; i < n; i++ {
		v := float64(i % 1000)
		a.Observe(v)
		b.Observe(v)
	}
	if len(a.samples) != ReservoirSize {
		t.Fatalf("reservoir grew to %d, want %d", len(a.samples), ReservoirSize)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("identical observation sequences disagree at q=%v: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	// Uniform values in [0,1000): the estimated median should be near 500.
	if p := a.P50(); p < 350 || p > 650 {
		t.Errorf("P50 of uniform [0,1000) = %v, want near 500", p)
	}
	// Interleaving Quantile with Observe must not change what is retained.
	c, d := NewHistogram("c"), NewHistogram("d")
	for i := 0; i < 3*ReservoirSize; i++ {
		v := float64(i % 777)
		c.Observe(v)
		d.Observe(v)
		if i%100 == 0 {
			_ = c.Quantile(0.5)
		}
	}
	if c.Quantile(0.95) != d.Quantile(0.95) {
		t.Error("Quantile interleaved with Observe perturbed the reservoir")
	}
}

// A series keeps every point it is given, in the order given.
func TestSeriesKeepsEveryPoint(t *testing.T) {
	u := NewSeries("u")
	for i := 0; i < 1000; i++ {
		u.Add(time.Duration(i), float64(i))
	}
	if u.Len() != 1000 {
		t.Fatalf("series dropped points: %d", u.Len())
	}
	for i, p := range u.Points {
		if p != (Point{T: time.Duration(i), V: float64(i)}) {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

func TestTableRendersUnionOfXs(t *testing.T) {
	a := NewSeries("fds")
	a.Add(1*time.Second, 100)
	a.Add(3*time.Second, 50)
	b := NewSeries("jobs")
	b.Add(2*time.Second, 7)
	tb := &Table{XLabel: "t(s)", Series: []*Series{a, b}}
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 x values
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "fds") || !strings.Contains(lines[0], "jobs") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "100.0") || !strings.Contains(lines[2], "7.0") {
		t.Fatalf("row at t=2 wrong: %q", lines[2])
	}
}

func TestSweepTable(t *testing.T) {
	tb := &SweepTable{
		XLabel: "producers",
		Xs:     []int{5, 10},
		Cols: []SweepCol{
			{Name: "Ethernet", Vals: []float64{50, 48}},
			{Name: "Aloha", Vals: []float64{40}},
		},
	}
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Ethernet") || !strings.Contains(out, "50.0") {
		t.Fatalf("out = %q", out)
	}
	if !strings.Contains(out, "NaN") {
		t.Fatalf("short column should render NaN: %q", out)
	}
}

// Property: Series.At is consistent with a linear scan for sorted input.
func TestQuickSeriesAt(t *testing.T) {
	f := func(offsets []uint16, probe uint16) bool {
		sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
		s := NewSeries("q")
		for i, o := range offsets {
			s.Add(time.Duration(o)*time.Millisecond, float64(i+1))
		}
		pt := time.Duration(probe) * time.Millisecond
		want := 0.0
		for i, o := range offsets {
			if time.Duration(o)*time.Millisecond <= pt {
				want = float64(i + 1)
			}
		}
		return s.At(pt) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram mean is bounded by min and max.
func TestQuickHistogramBounds(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram("q")
		any := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6) // keep sums finite
			h.Observe(v)
			any = true
		}
		if !any {
			return true
		}
		m := h.Mean()
		return m >= h.Min()-1e-9*math.Abs(h.Min())-1e-9 && m <= h.Max()+1e-9*math.Abs(h.Max())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableTSV(t *testing.T) {
	a := NewSeries("fds")
	a.Add(5*time.Second, 100)
	b := NewSeries("jobs")
	b.Add(10*time.Second, 7)
	tb := &Table{XLabel: "t", Series: []*Series{a, b}}
	var sb strings.Builder
	if _, err := tb.WriteTSVTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "t\tfds\tjobs\n5\t100\t0\n10\t100\t7\n"
	if sb.String() != want {
		t.Fatalf("tsv = %q, want %q", sb.String(), want)
	}
}

func TestSweepTableTSV(t *testing.T) {
	tb := &SweepTable{
		XLabel: "n",
		Xs:     []int{5, 10},
		Cols:   []SweepCol{{Name: "A", Vals: []float64{1.5, 2}}},
	}
	var sb strings.Builder
	if _, err := tb.WriteTSVTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "n\tA\n5\t1.5\n10\t2\n"
	if sb.String() != want {
		t.Fatalf("tsv = %q, want %q", sb.String(), want)
	}
}
