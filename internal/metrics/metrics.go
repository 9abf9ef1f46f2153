// Package metrics collects the time series and statistics from which the
// paper's figures are regenerated. It is deliberately simple: everything
// is single-writer under the simulation token, so there is no locking.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one sample of a time series: a value observed at a virtual
// time offset from the start of the experiment.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series with a name used in table output.
// It retains every sample.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the most recent sample, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Max returns the largest value in the series (0 if empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the smallest value, or 0 if the series is empty.
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Equal reports whether two series are sample-for-sample identical:
// same name, same length, same (T, V) at every index. Determinism tests
// use it to assert that identical seeds yield identical runs.
func (s *Series) Equal(o *Series) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Name != o.Name || len(s.Points) != len(o.Points) {
		return false
	}
	for i, p := range s.Points {
		if o.Points[i] != p {
			return false
		}
	}
	return true
}

// At returns the value in effect at time t: the last sample with T <= t,
// or 0 if none. Samples must have been appended in time order.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// ReservoirSize is the number of samples a Histogram retains for
// quantile estimation. Up to this many observations the quantiles are
// exact; beyond it they come from a uniform random subsample of fixed
// size (algorithm R), so memory stays O(1) regardless of Count.
const ReservoirSize = 1024

// Histogram accumulates values into summary statistics plus a
// fixed-size reservoir for quantile estimation. The reservoir's
// replacement draws come from a private splitmix64 stream seeded at
// construction, never from the simulation RNG, so observing values
// neither consumes simulation randomness nor varies between runs:
// identical observation sequences retain identical samples.
type Histogram struct {
	Name       string
	Count      int64
	Sum        float64
	SumSquares float64
	MinV, MaxV float64

	samples []float64
	rng     uint64
}

// NewHistogram returns an empty named histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name, MinV: math.Inf(1), MaxV: math.Inf(-1), rng: 0x9e3779b97f4a7c15}
}

// splitmix64 advances the reservoir's private random stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	h.SumSquares += v * v
	if v < h.MinV {
		h.MinV = v
	}
	if v > h.MaxV {
		h.MaxV = v
	}
	if len(h.samples) < ReservoirSize {
		h.samples = append(h.samples, v)
	} else if r := splitmix64(&h.rng) % uint64(h.Count); r < ReservoirSize {
		h.samples[r] = v
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the observed
// values, estimated from the reservoir with linear interpolation
// between order statistics. It returns 0 before any Observe. The
// reservoir itself is never reordered, so Quantile may be interleaved
// with Observe without perturbing which samples are retained.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// P50 returns the median of the observed values (0 before any Observe).
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile observed value.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile observed value.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Min returns the smallest observed value, or 0 before any Observe
// (the raw MinV field is +Inf in that state).
func (h *Histogram) Min() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.MinV
}

// Max returns the largest observed value, or 0 before any Observe
// (the raw MaxV field is -Inf in that state).
func (h *Histogram) Max() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.MaxV
}

// Mean returns the mean of observed values (0 if none).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Stddev returns the population standard deviation (0 if fewer than two
// observations).
func (h *Histogram) Stddev() float64 {
	if h.Count < 2 {
		return 0
	}
	m := h.Mean()
	v := h.SumSquares/float64(h.Count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// JainIndex returns Jain's fairness index over per-client allocations:
// (Σx)² / (n·Σx²). It is 1 when every client received the same amount
// and approaches 1/n as one client monopolizes the resource. An empty
// or all-zero slice is perfectly fair by convention (nobody got more
// than anybody else) and returns 1.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Table renders one or more series that share an x-axis as an aligned
// text table, in the spirit of the paper's figures: the first column is
// the x value, subsequent columns are each series' value at that x.
// Rows are the union of all x values.
type Table struct {
	XLabel string
	Series []*Series
}

// xUnion returns the sorted union of all x values across the table's
// series — the shared row axis of both renderings.
func (t *Table) xUnion() []time.Duration {
	xs := map[time.Duration]struct{}{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			xs[p.T] = struct{}{}
		}
	}
	order := make([]time.Duration, 0, len(xs))
	for x := range xs {
		order = append(order, x)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// WriteTo renders the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	order := t.xUnion()

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range order {
		fmt.Fprintf(&b, "%-12.0f", x.Seconds())
		for _, s := range t.Series {
			fmt.Fprintf(&b, " %14.1f", s.At(x))
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteTSVTo renders the table as tab-separated values, one row per x,
// ready for gnuplot or a spreadsheet.
func (t *Table) WriteTSVTo(w io.Writer) (int64, error) {
	order := t.xUnion()

	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, s := range t.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for _, x := range order {
		fmt.Fprintf(&b, "%g", x.Seconds())
		for _, s := range t.Series {
			fmt.Fprintf(&b, "\t%g", s.At(x))
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// SweepTable renders series whose x-axis is an integer parameter (for
// example "number of submitters") rather than time.
type SweepTable struct {
	XLabel string
	Xs     []int
	// Cols maps a column label to values parallel to Xs.
	Cols []SweepCol
}

// SweepCol is one column of a SweepTable.
type SweepCol struct {
	Name string
	Vals []float64
}

// val returns the column's value for row i, or NaN when the column is
// shorter than the x axis.
func (c SweepCol) val(i int) float64 {
	if i < len(c.Vals) {
		return c.Vals[i]
	}
	return math.NaN()
}

// WriteTo renders the sweep table. It implements io.WriterTo.
func (t *SweepTable) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %14s", c.Name)
	}
	b.WriteByte('\n')
	for i, x := range t.Xs {
		fmt.Fprintf(&b, "%-14d", x)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, " %14.1f", c.val(i))
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteTSVTo renders the sweep table as tab-separated values.
func (t *SweepTable) WriteTSVTo(w io.Writer) (int64, error) {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, c := range t.Cols {
		b.WriteByte('\t')
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for i, x := range t.Xs {
		fmt.Fprintf(&b, "%d", x)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, "\t%g", c.val(i))
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
