// Package obs is the repository's stdlib-only observability layer: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms,
// with labeled series and Prometheus text exposition), a bounded
// flight recorder of structured provisioning events, an injectable
// monotonic clock for deterministic micro-timing, and an opt-in HTTP
// server exposing /metrics, /events, and /debug/pprof.
//
// The layer is strictly write-only with respect to the simulation: the
// engines publish into it but never read back, so a run with obs
// enabled is bit-identical to one without (internal/core regression-
// tests this). Every instrument is nil-safe — methods on a nil
// *Counter, *Gauge, *Histogram, or *Recorder are allocation-free
// no-ops — so instrumented hot paths cost nothing when observability
// is disabled.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families keyed by name. All methods are safe
// for concurrent use, and all methods on a nil *Registry return nil
// instruments (whose operations are no-ops), so a disabled
// observability layer needs no call-site guards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled instance of a family.
type series struct {
	labels    []Label // sorted by key
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family returns (creating if needed) the named family, enforcing that
// a name is never reused with a different kind.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as " + f.kind.String() + ", requested as " + kind.String())
	}
	return f
}

// canonical sorts a copy of the labels by key and builds the series
// lookup key.
func canonical(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := ""
	for _, l := range ls {
		key += l.Key + "\x00" + l.Value + "\x00"
	}
	return ls, key
}

// get returns (creating if needed) the series for the given labels.
func (f *family) get(labels []Label) *series {
	ls, key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: ls}
		switch f.kind {
		case counterKind:
			s.counter = &Counter{}
		case gaugeKind:
			s.gauge = &Gauge{}
		case histogramKind:
			s.histogram = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the monotonically increasing counter series for
// name+labels, registering it on first use. Repeated calls with the
// same name and labels return the same instance; a nil registry
// returns nil (a no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, counterKind, nil).get(labels).counter
}

// Gauge returns the gauge series for name+labels (see Counter).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, gaugeKind, nil).get(labels).gauge
}

// Histogram returns the histogram series for name+labels (see
// Counter). The bucket layout is fixed by the first registration of
// the family; buckets must be sorted strictly ascending and finite
// (an implicit +Inf bucket is always appended).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, histogramKind, checkBuckets(buckets)).get(labels).histogram
}

// SeriesCount returns the number of registered series across all
// families (0 for a nil registry).
func (r *Registry) SeriesCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.families {
		f.mu.Lock()
		n += len(f.series)
		f.mu.Unlock()
	}
	return n
}

// Counter is a monotonically increasing integer counter. All methods
// are safe on a nil receiver (no-ops) and for concurrent use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d; non-positive deltas are ignored (counters only go up).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.n.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 value that can go up and down. All methods are
// safe on a nil receiver (no-ops) and for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition, per-bucket internally) and tracks their sum. All methods
// are safe on a nil receiver (no-ops) and for concurrent use.
type Histogram struct {
	bounds  []float64      // finite upper bounds, ascending
	counts  []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64
	n       atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// checkBuckets validates and copies a bucket layout, dropping a
// trailing +Inf (it is implicit).
func checkBuckets(buckets []float64) []float64 {
	if n := len(buckets); n > 0 && math.IsInf(buckets[n-1], 1) {
		buckets = buckets[:n-1]
	}
	out := append([]float64(nil), buckets...)
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bucket bounds must be finite")
		}
		if i > 0 && out[i-1] >= b {
			panic("obs: histogram buckets must be sorted strictly ascending")
		}
	}
	return out
}

// Observe records one observation. Buckets are le-inclusive
// (Prometheus semantics); NaN lands in the +Inf bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the owning bucket; NaN compares false
	// everywhere, overflowing into +Inf like Prometheus does.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// CountAtOrBelow returns the cumulative count of observations that
// landed in buckets whose upper bound is <= bound — the histogram's
// best answer to "how many observations met this latency objective".
// The objective is effectively rounded down to the nearest bucket
// boundary; SLO burn-rate rules over latency histograms read this.
func (h *Histogram) CountAtOrBelow(bound float64) int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i, b := range h.bounds {
		if b > bound {
			return n
		}
		n += h.counts[i].Load()
	}
	return n
}

// snapshotCounts returns per-bucket (non-cumulative) counts, the +Inf
// bucket last.
func (h *Histogram) snapshotCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// TimeBuckets spans 1µs to 10s in a 1–2.5–5 progression: wide enough
// for a whole simulation tick, fine enough for a single prediction.
var TimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
