// Package obs is the observability layer threaded through the simulation
// stack: a low-overhead metrics registry, structured run manifests, and an
// optional JSONL event tracer.
//
// The registry hands out metric handles at registration time; the hot path
// touches only the handle — an atomic add for counters, an atomic store for
// gauges, a bounded bucket scan for histograms. No map lookup, interface
// dispatch, or allocation happens per observation (verified by
// TestHotPathAllocations). Single-writer subsystems that cannot afford even
// an uncontended atomic (the discrete-event engine's per-event counters)
// keep plain struct fields and register them as CounterFunc/GaugeFunc
// collectors, which the registry reads only when a snapshot is taken.
//
// A Snapshot is the registry frozen into plain maps, embedded into run
// manifests (see Manifest) so every simulator invocation leaves an
// auditable record of what the engine actually did.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Safe for
// concurrent use; Inc/Add never allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reports the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically settable float64. Safe for concurrent use;
// Set/Add/SetMax never allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load reports the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Add atomically adds d to the gauge (compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket latency/size histogram. Bucket bounds are
// chosen at registration and never change; Observe scans them linearly
// (bounds are few) and performs no allocation. Counts[i] holds
// observations <= Bounds[i]; the final slot is the overflow bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    Gauge // atomic float64 accumulator
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// snapshot freezes the histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a Histogram frozen for serialization. Counts has
// one more entry than Bounds; the extra final entry is the overflow
// bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is the registry frozen into plain maps, the metrics block of a
// run manifest. encoding/json sorts map keys, so serialized snapshots are
// byte-deterministic for a given state.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Merge folds other into s and returns s: counters and histograms (with
// identical bounds) add; gauges keep the maximum, which suits the
// high-water and occupancy gauges the simulators publish. Histograms with
// mismatched bounds keep s's buckets but still add counts and sums.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	for k, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = map[string]uint64{}
		}
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]float64{}
		}
		if cur, ok := s.Gauges[k]; !ok || v > cur {
			s.Gauges[k] = v
		}
	}
	for k, v := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		cur, ok := s.Histograms[k]
		if !ok {
			s.Histograms[k] = v
			continue
		}
		cur.Count += v.Count
		cur.Sum += v.Sum
		if len(cur.Counts) == len(v.Counts) {
			counts := append([]uint64(nil), cur.Counts...)
			for i := range counts {
				counts[i] += v.Counts[i]
			}
			cur.Counts = counts
		}
		s.Histograms[k] = cur
	}
	return s
}

// Registry is a named collection of metrics. Registration (Counter,
// Gauge, Histogram, CounterFunc, GaugeFunc) takes a lock and may
// allocate; the returned handles are lock-free. Registering the same name
// twice returns the original handle; registering one name as two
// different kinds panics — that is a programming error, not runtime
// input.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	histograms   map[string]*Histogram
	counterFuncs map[string]func() uint64
	gaugeFuncs   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		histograms:   map[string]*Histogram{},
		counterFuncs: map[string]func() uint64{},
		gaugeFuncs:   map[string]func() float64{},
	}
}

// checkNew panics if name is already registered under a different kind.
func (r *Registry) checkNew(name, kind string) {
	kinds := []struct {
		k  string
		ok bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
		{"counterfunc", r.counterFuncs[name] != nil},
		{"gaugefunc", r.gaugeFuncs[name] != nil},
	}
	for _, c := range kinds {
		if c.ok && c.k != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, c.k, kind))
		}
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkNew(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkNew(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use. Later calls ignore
// bounds and return the original.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkNew(name, "histogram")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// CounterFunc registers a counter collected by calling fn at snapshot
// time — the zero-hot-path form for single-writer subsystems that keep
// plain struct fields. fn must be safe to call whenever Snapshot is.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNew(name, "counterfunc")
	r.counterFuncs[name] = fn
}

// GaugeFunc registers a gauge collected by calling fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNew(name, "gaugefunc")
	r.gaugeFuncs[name] = fn
}

// Snapshot freezes every registered metric. Func collectors are invoked
// under the registry lock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if n := len(r.counters) + len(r.counterFuncs); n > 0 {
		s.Counters = make(map[string]uint64, n)
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
		for name, fn := range r.counterFuncs {
			s.Counters[name] = fn()
		}
	}
	if n := len(r.gauges) + len(r.gaugeFuncs); n > 0 {
		s.Gauges = make(map[string]float64, n)
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
		for name, fn := range r.gaugeFuncs {
			s.Gauges[name] = fn()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}
