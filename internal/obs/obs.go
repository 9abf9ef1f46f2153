// Package obs is the flight recorder: a metrics registry whose
// instruments — counters, gauges, polled gauges, and quantile
// histograms, grouped into labeled families — are periodically sampled
// into bounded time series on the *backend clock*, then exported as
// Prometheus text, JSONL/CSV time-series dumps, or served live over
// HTTP (see export.go and http.go).
//
// Where internal/metrics holds the figures themselves and
// internal/trace records every event, obs sits in between: cheap
// always-on counters plus a clock-driven sampler that turns them into
// "occupancy vs time" series at a chosen resolution. On the simulator
// the clock is virtual, so a dump is a pure function of the seed
// (byte-identical across runs and across -parallel settings, via
// Merge); on the live backend it is compressed wall time.
//
// Like the tracer, the whole API is nil-safe: a nil *Registry yields
// nil scopes and nil instruments, and every hot-path method (Inc, Add,
// Set, Observe) on a nil instrument is a single pointer check with
// zero allocations — asserted by this package's benchmarks and its
// TestNilHotPathZeroAlloc. Instrumentation is therefore wired
// unconditionally and costs nothing until a registry is armed.
//
// Concurrency: instrument writes are atomic (histograms take a small
// private mutex), and the registry's structure plus every sampled
// series is guarded by the registry mutex, so live-backend cells can
// share one registry while an HTTP exporter reads it mid-run. On the
// simulator everything additionally runs under the engine token, as
// usual.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Kind classifies an instrument family for exposition.
type Kind uint8

// Family kinds, matching the Prometheus exposition types.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram // exposed as a Prometheus summary (quantiles)
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return "untyped"
}

// DefaultSeriesCap bounds every sampled series (see metrics.Series
// SetCap): at most this many retained points per series, with
// count-driven downsampling past it, so even a million-client run's
// flight record stays small.
const DefaultSeriesCap = 4096

// Registry is an ordered collection of instrument families. Create one
// with New, carve per-cell Scopes with NewScope, and export with
// WriteProm / WriteJSONL / WriteCSV. The zero registry is not valid;
// a nil *Registry is, and disables everything downstream.
type Registry struct {
	mu        sync.Mutex
	fams      []*Family
	byName    map[string]*Family
	seriesCap int
}

// New returns an empty registry with the default series cap.
func New() *Registry {
	return &Registry{byName: make(map[string]*Family), seriesCap: DefaultSeriesCap}
}

// SetSeriesCap bounds every series created from now on to at most n
// retained points (n <= 0 means unbounded). Call before instrumenting.
func (r *Registry) SetSeriesCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seriesCap = n
	r.mu.Unlock()
}

// Family is one named group of instruments sharing label keys.
type Family struct {
	name, help string
	kind       Kind
	keys       []string
	children   []instrument
	byKey      map[string]instrument
}

// instrument is the family-internal contract every concrete instrument
// satisfies.
type instrument interface {
	labelVals() []string
	// sample appends the instrument's current value(s) to its series
	// at clock offset t. Registry lock held.
	sample(t time.Duration)
	// current is the instantaneous scalar used by CurrentTotal and the
	// sweep progress reporter (for histograms, the observation count).
	current() float64
	// allSeries lists the instrument's sampled series for export.
	allSeries() []*metrics.Series
	// mergeFrom folds another cell's instrument of the same identity
	// into this one (same concrete type by construction).
	mergeFrom(o instrument)
}

// family finds or creates a family under the registry lock.
func (r *Registry) family(name, help string, kind Kind, keys []string) *Family {
	f, ok := r.byName[name]
	if !ok {
		f = &Family{name: name, help: help, kind: kind, keys: keys, byKey: make(map[string]instrument)}
		r.fams = append(r.fams, f)
		r.byName[name] = f
	}
	return f
}

// labelKey joins label values into the family's child-lookup key.
func labelKey(vals []string) string { return strings.Join(vals, "\xff") }

// seriesName renders the instrument's fully-qualified series name:
// family name plus {k=v,...} when labeled.
func seriesName(name string, keys, vals []string) string {
	if len(keys) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(vals[i])
	}
	b.WriteByte('}')
	return b.String()
}

// newSeries mints a bounded series for one instrument. Registry lock
// held.
func (r *Registry) newSeries(name string, keys, vals []string, suffix string) *metrics.Series {
	s := metrics.NewSeries(seriesName(name+suffix, keys, vals))
	s.SetCap(r.seriesCap)
	return s
}

// meta is the label identity and sampled series shared by the scalar
// instruments.
type meta struct {
	vals   []string
	series *metrics.Series
}

func (m *meta) labelVals() []string               { return m.vals }
func (m *meta) allSeries() []*metrics.Series      { return []*metrics.Series{m.series} }
func (m *meta) record(t time.Duration, v float64) { m.series.Add(t, v) }

// Counter is a monotonically increasing count. All methods are nil-safe
// and allocation-free.
type Counter struct {
	n atomic.Int64
	meta
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n (negative deltas are a caller bug; they are not checked
// on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

func (c *Counter) sample(t time.Duration) { c.record(t, float64(c.n.Load())) }
func (c *Counter) current() float64       { return float64(c.n.Load()) }
func (c *Counter) mergeFrom(o instrument) {
	oc := o.(*Counter)
	c.n.Add(oc.n.Load())
	appendPoints(c.series, oc.series)
}

// Gauge is an instantaneous value. All methods are nil-safe and
// allocation-free.
type Gauge struct {
	bits atomic.Uint64
	meta
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) sample(t time.Duration) { g.record(t, g.Value()) }
func (g *Gauge) current() float64       { return g.Value() }
func (g *Gauge) mergeFrom(o instrument) {
	og := o.(*Gauge)
	g.bits.Store(og.bits.Load())
	appendPoints(g.series, og.series)
}

// FuncGauge polls a callback at sample time. The callback runs under
// whatever lock protects the sampled state (on a backend, the engine
// token — Scope.Sample is driven by backend timers); exposition never
// calls it, reading the cached last sample instead, so an HTTP
// exporter cannot race the engine.
type FuncGauge struct {
	fn   func() float64
	last atomic.Uint64
	meta
}

// Value returns the last sampled value (0 on nil or before the first
// sample).
func (g *FuncGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.last.Load())
}

func (g *FuncGauge) sample(t time.Duration) {
	v := g.fn()
	g.last.Store(math.Float64bits(v))
	g.record(t, v)
}
func (g *FuncGauge) current() float64 { return g.Value() }
func (g *FuncGauge) mergeFrom(o instrument) {
	og := o.(*FuncGauge)
	g.last.Store(og.last.Load())
	appendPoints(g.series, og.series)
}

// Histogram accumulates observations into summary statistics plus a
// deterministic fixed-size reservoir (metrics.Histogram); sampling
// records its P50/P95/P99 and count as four series. Observe is
// nil-safe; when enabled it takes a private mutex, so it is safe from
// concurrent live-backend processes.
type Histogram struct {
	mu   sync.Mutex
	h    *metrics.Histogram
	vals []string
	q    [4]*metrics.Series // p50, p95, p99, count
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count
}

// Quantile returns the q-th quantile of the observations (0 on nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

func (h *Histogram) labelVals() []string { return h.vals }
func (h *Histogram) sample(t time.Duration) {
	h.mu.Lock()
	p50, p95, p99, n := h.h.P50(), h.h.P95(), h.h.P99(), h.h.Count
	h.mu.Unlock()
	h.q[0].Add(t, p50)
	h.q[1].Add(t, p95)
	h.q[2].Add(t, p99)
	h.q[3].Add(t, float64(n))
}
func (h *Histogram) current() float64 { return float64(h.Count()) }
func (h *Histogram) allSeries() []*metrics.Series {
	return []*metrics.Series{h.q[0], h.q[1], h.q[2], h.q[3]}
}
func (h *Histogram) mergeFrom(o instrument) {
	oh := o.(*Histogram)
	oh.mu.Lock()
	// Fold the summary moments; the reservoir keeps this cell's samples.
	h.h.Count += oh.h.Count
	h.h.Sum += oh.h.Sum
	h.h.SumSquares += oh.h.SumSquares
	if oh.h.MinV < h.h.MinV {
		h.h.MinV = oh.h.MinV
	}
	if oh.h.MaxV > h.h.MaxV {
		h.h.MaxV = oh.h.MaxV
	}
	oh.mu.Unlock()
	for i := range h.q {
		appendPoints(h.q[i], oh.q[i])
	}
}

// appendPoints appends o's retained points to s (merge path only; the
// per-series cap applies to future Adds, not to an explicit merge).
func appendPoints(s, o *metrics.Series) {
	s.Points = append(s.Points, o.Points...)
}

// Scope is the per-cell instrumentation handle: a clock (the cell
// backend's Elapsed), a base label set stamped onto every instrument
// (the cell identity), and the list of instruments Sample walks. A nil
// Scope — from a nil Registry — returns nil instruments and samples
// nothing.
type Scope struct {
	r     *Registry
	clock func() time.Duration
	base  []string // alternating key, value
	items []instrument
}

// NewScope returns an instrumentation scope whose samples are stamped
// with the clock's offsets and whose instruments all carry the base
// labels (alternating key, value — L is a readable way to build them).
func (r *Registry) NewScope(clock func() time.Duration, base ...string) *Scope {
	if r == nil {
		return nil
	}
	if len(base)%2 != 0 {
		panic("obs: odd base label list")
	}
	return &Scope{r: r, clock: clock, base: base}
}

// L builds an alternating key-value label list; it exists purely to
// make call sites read as L("disc", "Ethernet", "n", "400").
func L(kv ...string) []string { return kv }

// labels merges the scope's base labels with kv into parallel key and
// value slices.
func (s *Scope) labels(kv []string) (keys, vals []string) {
	if len(kv)%2 != 0 {
		panic("obs: odd label list")
	}
	n := (len(s.base) + len(kv)) / 2
	keys = make([]string, 0, n)
	vals = make([]string, 0, n)
	for i := 0; i < len(s.base); i += 2 {
		keys = append(keys, s.base[i])
		vals = append(vals, s.base[i+1])
	}
	for i := 0; i < len(kv); i += 2 {
		keys = append(keys, kv[i])
		vals = append(vals, kv[i+1])
	}
	return keys, vals
}

// child finds or creates the instrument for (name, labels), returning
// (existing, true) when it was already registered. Registry lock held.
func (f *Family) child(vals []string) (instrument, bool) {
	c, ok := f.byKey[labelKey(vals)]
	return c, ok
}

func (f *Family) addChild(vals []string, c instrument) {
	f.children = append(f.children, c)
	f.byKey[labelKey(vals)] = c
}

// Counter registers (or finds) a counter in the named family, with the
// scope's base labels plus kv.
func (s *Scope) Counter(name, help string, kv ...string) *Counter {
	if s == nil {
		return nil
	}
	keys, vals := s.labels(kv)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	f := s.r.family(name, help, KindCounter, keys)
	if c, ok := f.child(vals); ok {
		return s.track(c).(*Counter)
	}
	c := &Counter{meta: meta{vals: vals, series: s.r.newSeries(name, keys, vals, "")}}
	f.addChild(vals, c)
	return s.track(c).(*Counter)
}

// Gauge registers (or finds) a gauge in the named family.
func (s *Scope) Gauge(name, help string, kv ...string) *Gauge {
	if s == nil {
		return nil
	}
	keys, vals := s.labels(kv)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	f := s.r.family(name, help, KindGauge, keys)
	if c, ok := f.child(vals); ok {
		return s.track(c).(*Gauge)
	}
	g := &Gauge{meta: meta{vals: vals, series: s.r.newSeries(name, keys, vals, "")}}
	f.addChild(vals, g)
	return s.track(g).(*Gauge)
}

// GaugeFunc registers a polled gauge: fn is called at each Sample (and
// only then — see FuncGauge). Unlike the find-or-create instruments a
// polled gauge is its closure, so registering the same family and label
// values twice is a bug in the caller — handing back the first gauge
// would keep polling the first closure's state, from the second
// caller's clock and lock — and panics, naming the series.
func (s *Scope) GaugeFunc(name, help string, fn func() float64, kv ...string) *FuncGauge {
	if s == nil {
		return nil
	}
	keys, vals := s.labels(kv)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	f := s.r.family(name, help, KindGauge, keys)
	if _, ok := f.child(vals); ok {
		panic("obs: polled gauge " + seriesName(name, keys, vals) + " registered twice")
	}
	g := &FuncGauge{fn: fn, meta: meta{vals: vals, series: s.r.newSeries(name, keys, vals, "")}}
	f.addChild(vals, g)
	return s.track(g).(*FuncGauge)
}

// Histogram registers (or finds) a quantile histogram in the named
// family.
func (s *Scope) Histogram(name, help string, kv ...string) *Histogram {
	if s == nil {
		return nil
	}
	keys, vals := s.labels(kv)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	f := s.r.family(name, help, KindHistogram, keys)
	if c, ok := f.child(vals); ok {
		return s.track(c).(*Histogram)
	}
	h := &Histogram{h: metrics.NewHistogram(name), vals: vals}
	h.q[0] = s.r.newSeries(name, keys, vals, "_p50")
	h.q[1] = s.r.newSeries(name, keys, vals, "_p95")
	h.q[2] = s.r.newSeries(name, keys, vals, "_p99")
	h.q[3] = s.r.newSeries(name, keys, vals, "_count")
	f.addChild(vals, h)
	return s.track(h).(*Histogram)
}

// track adds the instrument to the scope's sample list.
func (s *Scope) track(c instrument) instrument {
	s.items = append(s.items, c)
	return c
}

// Sample appends every scoped instrument's current value to its series
// at the scope clock's current offset. Call it from a backend timer so
// polled gauges read engine state under the engine token.
func (s *Scope) Sample() {
	if s == nil {
		return
	}
	t := s.clock()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, it := range s.items {
		it.sample(t)
	}
}

// Merge folds another registry's families into r in o's registration
// order: a sweep's per-cell registries merged in cell order yield the
// same bytes as one registry written to serially, which is how the
// parallel runner keeps -metrics dumps byte-identical at any worker
// count. o must be quiescent (its cell finished).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, of := range o.fams {
		f := r.family(of.name, of.help, of.kind, of.keys)
		for _, oc := range of.children {
			if c, ok := f.child(oc.labelVals()); ok {
				c.mergeFrom(oc)
				continue
			}
			f.addChild(oc.labelVals(), oc)
		}
	}
}

// CurrentTotal sums the instantaneous values of every instrument in
// the named family (0 when absent): the sweep progress reporter reads
// engine event totals through it.
func (r *Registry) CurrentTotal(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		return 0
	}
	var sum float64
	for _, c := range f.children {
		sum += c.current()
	}
	return sum
}

// SeriesCount reports the total number of sampled series (for /healthz).
func (r *Registry) SeriesCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.fams {
		for _, c := range f.children {
			n += len(c.allSeries())
		}
	}
	return n
}

// sortedFams returns the families sorted by name (the Prometheus
// exposition convention). Registry lock held.
func (r *Registry) sortedFams() []*Family {
	fams := make([]*Family, len(r.fams))
	copy(fams, r.fams)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
