// Package metrics is the reproduction's counter/gauge/histogram registry:
// the uniform observability surface that absorbs what used to be ad-hoc
// per-subsystem stat structs (vmi.Stats, SharedStats) and gives every layer
// — hypervisor clock charges, introspection primitives, pipeline stages,
// scanner sweeps — one deterministic place to account its work.
//
// Determinism rules (shared with internal/trace):
//
//   - No host time. Every value is a count or a simulated duration fed in by
//     the caller; nothing in this package reads the host clock.
//   - Export order is the sorted metric name, never map iteration order, so
//     two runs from one seed render byte-identical snapshots.
//   - Counters are commutative sums over atomics: the total is independent
//     of goroutine interleaving, which is what lets the parallel pipeline
//     increment them from bounded workers without perturbing results.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use, and all methods are nil-receiver-safe so instrumentation sites can
// hold optional counters without guards.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins signed level (pool size, quarantine count).
// The zero value is ready to use; methods are nil-receiver-safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets observations (simulated durations, expressed in
// seconds) into fixed upper-bound buckets plus a +Inf overflow bucket. The
// bounds are fixed at registration, so exports are deterministic however the
// observations interleave.
type Histogram struct {
	bounds []float64 // sorted upper bounds; immutable after registration

	mu     sync.Mutex
	counts []uint64 // guarded by mu; len(bounds)+1, last is +Inf
	count  uint64   // guarded by mu
	sum    float64  // guarded by mu
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// ObserveDuration records a simulated duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// DefBuckets spans the sweep timescales this simulation produces: tens of
// microseconds (one TLB-warm page read) up to tens of simulated seconds
// (a contended full-pool sweep).
func DefBuckets() []float64 {
	return []float64{1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 50}
}

// Registry is a named collection of metrics. The zero value is ready to
// use; get-or-create lookups are concurrency-safe. Hot paths should cache
// the returned pointers rather than re-resolving names per operation.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter      // guarded by mu
	gauges map[string]*Gauge        // guarded by mu
	hists  map[string]*Histogram    // guarded by mu
	funcs  map[string]func() uint64 // guarded by mu
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts == nil {
		r.counts = make(map[string]*Counter)
	}
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (DefBuckets when bounds is nil). Bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefBuckets()
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a read-on-snapshot counter source: subsystems that
// already keep their own atomic counters (the VMI layer's per-pool stats)
// publish them through the registry without double-counting.
func (r *Registry) RegisterFunc(name string, f func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string]func() uint64)
	}
	r.funcs[name] = f
}

// CounterSample is one counter's exported value.
type CounterSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSample is one gauge's exported value.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSample is one histogram's exported state: cumulative bucket
// counts up to each bound, plus count and sum.
type HistogramSample struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time, deterministically ordered export of a
// registry.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters,omitempty"`
	Gauges     []GaugeSample     `json:"gauges,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
}

// Snapshot captures every metric, sorted by name. Function-backed counters
// are folded into Counters alongside registry-owned ones.
//
//moddet:sink metric snapshots feed deterministic exports
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for n, c := range r.counts {
		counts[n] = c
	}
	funcs := make(map[string]func() uint64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	var s Snapshot
	for n, c := range counts {
		s.Counters = append(s.Counters, CounterSample{Name: n, Value: c.Load()})
	}
	for n, f := range funcs {
		s.Counters = append(s.Counters, CounterSample{Name: n, Value: f()})
	}
	for n, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: n, Value: g.Load()})
	}
	for n, h := range hists {
		h.mu.Lock()
		s.Histograms = append(s.Histograms, HistogramSample{
			Name:    n,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: append([]uint64(nil), h.counts...),
			Count:   h.count,
			Sum:     h.sum,
		})
		h.mu.Unlock()
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the snapshot as aligned "name value" lines.
//
//moddet:sink metrics text export must be byte-identical across runs
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%-40s count=%d sum=%.6f\n", h.Name, h.Count, h.Sum); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
//
//moddet:sink metrics JSON export must be byte-identical across runs
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
