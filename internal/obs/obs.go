// Package obs is the flight recorder: a metrics registry whose
// instruments — polled counters and gauges, grouped into labeled
// families — are periodically sampled into time series on the
// *backend clock*, then exported as Prometheus text, JSONL/CSV
// time-series dumps, or served live over HTTP (see export.go and
// http.go).
//
// Where internal/metrics holds the figures themselves and
// internal/trace records every event, obs sits in between: a
// clock-driven sampler that turns state the program already keeps into
// "occupancy vs time" series at a chosen resolution. Every instrument
// is a read of that state at sample time (a ledger field, a queue
// length, an engine total), never a second count kept beside it, so an
// instrumented hot path does no extra work at all. On the simulator the
// clock is virtual, so a dump is a pure function of the seed
// (byte-identical across runs and across -parallel settings, via
// Merge); on the live backend it is compressed wall time.
//
// Like the tracer, the whole API is nil-safe: a nil *Registry yields
// nil scopes, a nil scope registers nothing and samples nothing, and
// both are a single pointer check with zero allocations — asserted by
// TestNilHotPathZeroAlloc. Instrumentation is therefore wired
// unconditionally and costs nothing until a registry is armed.
//
// Concurrency: the registry's structure plus every sampled series is
// guarded by the registry mutex, so live-backend cells can share one
// registry while an HTTP exporter reads it mid-run. Sampling calls the
// instruments' functions with that mutex held, so the caller of Sample
// holds whatever guards the state they read (the engine token, or
// gridd's monitor) and takes it before the registry's: host lock, then
// registry lock, everywhere.
package obs

import (
	"fmt"
	"math"
	"slices"
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
	KindCounter Kind = iota // a monotone count (its name ends in _total)
	KindGauge               // an instantaneous level
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Registry is an ordered collection of instrument families. Create one
// with New, carve per-cell Scopes with NewScope, and export with
// WriteProm / WriteJSONL / WriteCSV. The zero registry is not valid;
// a nil *Registry is, and disables everything downstream.
type Registry struct {
	mu     sync.Mutex
	fams   []*Family
	byName map[string]*Family
}

// New returns an empty registry whose series keep every point.
func New() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Family is one named group of instruments sharing label keys.
type Family struct {
	name, help string
	kind       Kind
	keys       []string
	children   []*Polled
	byKey      map[string]*Polled
}

// family finds or creates a family under the registry lock. A name
// registered again with another help, kind or label keys panics.
func (r *Registry) family(name, help string, kind Kind, keys []string) *Family {
	f, ok := r.byName[name]
	if !ok {
		f = &Family{name: name, help: help, kind: kind, keys: keys, byKey: make(map[string]*Polled)}
		r.fams = append(r.fams, f)
		r.byName[name] = f
		return f
	}
	if f.help != help || f.kind != kind || !slices.Equal(f.keys, keys) {
		panic(fmt.Sprintf("obs: family %s registered as %s %q {%s}, then as %s %q {%s}",
			name, f.kind, f.help, strings.Join(f.keys, ","), kind, help, strings.Join(keys, ",")))
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

// Polled is the one kind of instrument: a function of state the program
// already keeps, called at sample time. The function runs under
// whatever lock protects that state (on a backend, the engine token —
// Scope.Sample is driven by backend timers; in gridd, the monitor);
// exposition never calls it, reading the cached last sample instead, so
// an HTTP exporter cannot race the engine.
type Polled struct {
	fn     func() float64
	last   atomic.Uint64
	vals   []string
	series *metrics.Series
}

// Value returns the last sampled value (0 on nil or before the first
// sample).
func (p *Polled) Value() float64 {
	if p == nil {
		return 0
	}
	return math.Float64frombits(p.last.Load())
}

// sample polls the function and appends its value to the series at
// clock offset t. Registry lock held.
func (p *Polled) sample(t time.Duration) {
	v := p.fn()
	p.last.Store(math.Float64bits(v))
	p.series.Add(t, v)
}

// mergeFrom folds another registry's instrument of the same identity
// into p: its points follow p's, and its last sample becomes p's.
func (p *Polled) mergeFrom(o *Polled) {
	p.last.Store(o.last.Load())
	p.series.Points = append(p.series.Points, o.series.Points...)
}

// Scope is the per-cell instrumentation handle: a clock (the cell
// backend's Elapsed), a base label set stamped onto every instrument
// (the cell identity), and the list of instruments Sample walks. A nil
// Scope — from a nil Registry — registers nothing and samples nothing.
type Scope struct {
	r     *Registry
	clock func() time.Duration
	base  []string // alternating key, value
	items []*Polled
}

// NewScope returns an instrumentation scope whose samples are stamped
// with the clock's offsets and whose instruments all carry the base
// labels (alternating key, value).
func (r *Registry) NewScope(clock func() time.Duration, base ...string) *Scope {
	if r == nil {
		return nil
	}
	if len(base)%2 != 0 {
		panic("obs: odd base label list")
	}
	return &Scope{r: r, clock: clock, base: base}
}

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

// GaugeFunc registers a polled gauge: fn is called at each Sample (and
// only then — see Polled), and the family is exposed as a gauge.
func (s *Scope) GaugeFunc(name, help string, fn func() float64, kv ...string) *Polled {
	return s.polled(KindGauge, name, help, fn, kv)
}

// CounterFunc registers a polled counter: a GaugeFunc whose family is
// exposed as a counter, for a monotone count the program keeps anyway
// (a ledger field, an engine total). By convention its name ends in
// _total.
func (s *Scope) CounterFunc(name, help string, fn func() float64, kv ...string) *Polled {
	return s.polled(KindCounter, name, help, fn, kv)
}

// polled registers fn in the named family, with the scope's base
// labels plus kv. A polled instrument is its closure, so registering
// the same family and label values twice is a bug in the caller —
// handing back the first instrument would keep polling the first
// closure's state, from the second caller's clock and lock — and
// panics, naming the series.
func (s *Scope) polled(kind Kind, name, help string, fn func() float64, kv []string) *Polled {
	if s == nil {
		return nil
	}
	keys, vals := s.labels(kv)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	f := s.r.family(name, help, kind, keys)
	key := labelKey(vals)
	if _, ok := f.byKey[key]; ok {
		panic("obs: polled instrument " + seriesName(name, keys, vals) + " registered twice")
	}
	p := &Polled{fn: fn, vals: vals, series: metrics.NewSeries(seriesName(name, keys, vals))}
	f.children = append(f.children, p)
	f.byKey[key] = p
	s.items = append(s.items, p)
	return p
}

// Sample appends every scoped instrument's current value to its series
// at the scope clock's current offset. Call it from a backend timer, or
// with the host's lock held, so the functions read state under the lock
// that guards it.
func (s *Scope) Sample() {
	if s == nil {
		return
	}
	t := s.clock()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, p := range s.items {
		p.sample(t)
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
			key := labelKey(oc.vals)
			if c, ok := f.byKey[key]; ok {
				c.mergeFrom(oc)
				continue
			}
			f.children = append(f.children, oc)
			f.byKey[key] = oc
		}
	}
}

// CurrentTotal sums the last sampled values of every instrument in the
// named family (0 when absent): the sweep progress reporter reads
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
		sum += c.Value()
	}
	return sum
}

// Points returns a copy of the points sampled by the named family's
// instrument with label values vals (nil when there is none): how a
// figure reads back the series its cell recorded.
func (r *Registry) Points(name string, vals ...string) []metrics.Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if p, ok := f.byKey[labelKey(vals)]; ok {
			return slices.Clone(p.series.Points)
		}
	}
	return nil
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
		n += len(f.children)
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
