// Package obs is the dependency-free observability substrate of the
// repository: atomic counters and gauges, bounded histograms, a named
// metric registry with a Prometheus-text exposition, and per-run Traces
// with wall-time spans and work counters.
//
// The package exists because lattice exploration is worst-case exponential
// (Cooper–Marzullo) and the serving path is a concurrent sharded engine:
// without counters for cuts explored, CPDHB passes, flow augmentations and
// mailbox occupancy, a slow detection run is indistinguishable from a hung
// one. Every hot path of the detectors and the stream engine reports here.
//
// All types are safe for concurrent use and nil-tolerant: methods on a nil
// *Counter, *Gauge, *Histogram or *Registry are no-ops, so instrumented
// code never branches on whether metrics are enabled.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters only
// go up; use a Gauge for bidirectional quantities).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (either sign).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram with caller-supplied upper bounds. An
// implicit +Inf bucket catches the overflow, so observation cost is O(log
// buckets) with no allocation; counts, sum and bucket occupancy are all
// atomics, so concurrent Observe calls never lock.
type Histogram struct {
	bounds  []int64 // sorted inclusive upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a histogram with the given inclusive upper bounds
// (sorted ascending; an implicit +Inf bucket is appended).
func NewHistogram(bounds ...int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns doubling bounds: start, 2*start, ... (n bounds).
func ExpBuckets(start int64, n int) []int64 {
	out := make([]int64, 0, n)
	for v, i := start, 0; i < n; v, i = v*2, i+1 {
		out = append(out, v)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; the final implicit bucket is
	// +Inf and has no entry here.
	Bounds []int64 `json:"bounds"`
	// Buckets holds per-bucket observation counts, len(Bounds)+1 entries
	// (the last is the +Inf overflow bucket). Counts are NOT cumulative.
	Buckets []int64 `json:"buckets"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
}

// Snapshot copies the histogram state. Concurrent observations may land
// between bucket reads; each bucket is individually exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Registry is a named collection of metrics, one map per metric kind:
// counters and gauges are vectors (a scalar is the vector with no label
// keys), histograms are scalar only. Lookups intern the metric on first
// use, so callers hold typed handles and pay a map access only once.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*Histogram

	smu      sync.Mutex
	samplers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*CounterVec),
		gauges:   make(map[string]*GaugeVec),
		hists:    make(map[string]*Histogram),
	}
}

// AddSampler registers a scrape-time hook: every Snapshot (and therefore
// every Prometheus exposition) calls the sampler first, so gauges whose
// source is pull-based — runtime memory stats, queue depths owned by
// another subsystem — are fresh at scrape time without a background
// goroutine. Samplers run outside the registry lock and may set metrics;
// they must not call Snapshot themselves. Nil-safe.
func (r *Registry) AddSampler(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.smu.Lock()
	r.samplers = append(r.samplers, fn)
	r.smu.Unlock()
}

// sample runs the registered scrape-time samplers.
func (r *Registry) sample() {
	r.smu.Lock()
	fns := r.samplers
	r.smu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// vecIn returns the named vector of one kind's map, creating it with
// the given label keys and the default series cap on first use (later
// key lists are ignored for an existing vector, matching Histogram's
// bounds rule).
func vecIn[M any](r *Registry, m map[string]*vec[M], name string, labelKeys []string) *vec[M] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = newVec[M](name, labelKeys, DefaultMaxSeries)
		m[name] = v
	}
	return v
}

// CounterVec returns the named counter vector. Returns a nil (no-op)
// vector on a nil registry.
func (r *Registry) CounterVec(name string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return vecIn(r, r.counters, name, labelKeys)
}

// GaugeVec returns the named gauge vector; see CounterVec.
func (r *Registry) GaugeVec(name string, labelKeys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return vecIn(r, r.gauges, name, labelKeys)
}

// Counter returns the named unlabeled counter.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the named unlabeled gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later bounds are ignored for an existing histogram).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time copy of every metric in a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. Vector series fold in under their
// rendered exposition names (`name{k="v"}`), so consumers of the
// snapshot — /debug/vars JSON and the Prometheus writer — see labeled
// series without knowing about vectors.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.sample()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.counters {
		v.fold(snap.Counters, (*Counter).Value)
	}
	for _, v := range r.gauges {
		v.fold(snap.Gauges, (*Gauge).Value)
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}
