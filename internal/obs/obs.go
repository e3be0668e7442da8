// Package obs is the repo's zero-allocation observability layer: atomic
// counters and gauges, fixed-bucket histograms, and a named registry with
// deterministic snapshots and JSON export.
//
// Design constraints, in order:
//
//  1. Hot-path operations (Inc, Add, Set, SetMax, Observe) perform zero
//     heap allocations and touch only the metric's own atomics. Handles
//     are resolved once at wire-up time, never per event.
//  2. Every handle method is nil-receiver safe: a nil *Counter, *Gauge,
//     *Histogram, or *Scope is the Nop implementation. Instrumented code
//     holds plain pointers and calls through unconditionally; when metrics
//     are not wired the call is an inlinable nil-check and nothing else,
//     so disabled instrumentation costs nothing measurable.
//  3. Snapshot output is deterministic: metrics sort by name, histogram
//     buckets are fixed at registration, and JSON field order is fixed by
//     the snapshot structs.
//
// The package depends only on the standard library (sync, sync/atomic,
// encoding/json, sort, time) and is safe for concurrent use: any number
// of goroutines may update metrics while others snapshot.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v     atomic.Int64
	owned bool // made by Scope.NewCounter: Reset leaves it alone
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	v     atomic.Int64
	owned bool // made by Scope.NewGauge: Reset leaves it alone
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation (pre-store buffer occupancy, peak RAM).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations. Bucket i
// counts observations v <= Bounds[i]; one implicit overflow bucket counts
// the rest. Sum, Count, and Max are tracked exactly. A nil *Histogram is
// a no-op.
type Histogram struct {
	bounds []int64 // strictly ascending, fixed at registration
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	owned  bool // made by Scope.NewHistogram: Reset leaves it alone
}

// newHistogram panics on bounds that are not strictly ascending (bucket
// layouts are static, so a bad one is a programming error).
func newHistogram(bounds []int64, owned bool) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d (%d <= %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	cp := make([]int64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(bounds)+1), owned: owned}
}

// Observe records one value. Allocation-free; the bucket scan is linear
// (bucket counts are small and the loop is branch-predictable).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Microseconds())
	}
}

// Enabled reports whether observations are recorded (false for nil). Use
// it to guard setup work, e.g. capturing a start time, that only matters
// when metrics are wired.
func (h *Histogram) Enabled() bool { return h != nil }

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Common bucket layouts. All values are int64; duration histograms store
// microseconds.

// DurationBuckets are exponential microsecond buckets from 100µs to ~27min:
// 100µs, 400µs, 1.6ms, 6.4ms, ... (×4 per step, 12 buckets).
func DurationBuckets() []int64 {
	out := make([]int64, 12)
	v := int64(100)
	for i := range out {
		out[i] = v
		v *= 4
	}
	return out
}

// SizeBuckets are power-of-4 byte-size buckets from 16B to ~4GB.
func SizeBuckets() []int64 {
	out := make([]int64, 14)
	v := int64(16)
	for i := range out {
		out[i] = v
		v *= 4
	}
	return out
}

// ExponentialBuckets returns n buckets start, start*factor, ...
func ExponentialBuckets(start, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n buckets start, start+step, ...
func LinearBuckets(start, step int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*step
	}
	return out
}

// Registry owns named metrics. Metric registration (Counter, Gauge,
// Histogram) is get-or-create and may happen at any time; updates and
// snapshots may proceed concurrently. A nil *Registry hands out nil
// handles, so an unwired program runs entirely on the Nop path.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Bounds must be strictly ascending; a
// redefinition with different bounds keeps the original buckets (the
// first registration wins, so handles stay stable).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds, false)
		r.hists[name] = h
	}
	return h
}

// Scope returns a handle that prefixes metric names with "prefix.".
// A nil registry yields a nil scope.
func (r *Registry) Scope(prefix string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: prefix + "."}
}

// Reset zeroes every shared metric (registrations and handles stay
// valid). Intended for tests and per-run dumps. Owned handles keep their
// values: their owner reports its own accounting from them.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		if !c.owned {
			c.v.Store(0)
		}
	}
	for _, g := range r.gauges {
		if !g.owned {
			g.v.Store(0)
		}
	}
	for _, h := range r.hists {
		if h.owned {
			continue
		}
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
	}
}

// Scope is a name-prefixed view of a registry. The Nop implementation is
// a nil *Scope: it hands out nil metric handles whose methods do nothing.
type Scope struct {
	r      *Registry
	prefix string
}

// Nop is the disabled scope: every handle it returns is a no-op.
var Nop *Scope

// Enabled reports whether metrics from this scope record anything.
func (s *Scope) Enabled() bool { return s != nil }

// Counter returns the scoped counter (nil for a nil scope).
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.Counter(s.prefix + name)
}

// Gauge returns the scoped gauge (nil for a nil scope).
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.r.Gauge(s.prefix + name)
}

// Histogram returns the scoped histogram (nil for a nil scope).
func (s *Scope) Histogram(name string, bounds []int64) *Histogram {
	if s == nil {
		return nil
	}
	return s.r.Histogram(s.prefix+name, bounds)
}

// NewCounter returns a fresh counter owned by the caller (a fleet or a
// server), registered under the scoped name in place of an earlier
// owner's; Counter is the shared get-or-create kind. The handle is live
// even on a nil scope, and Reset leaves it alone.
func (s *Scope) NewCounter(name string) *Counter {
	return own(s, name, &Counter{owned: true}, func(r *Registry) map[string]*Counter { return r.counts })
}

// NewGauge is NewCounter for a gauge.
func (s *Scope) NewGauge(name string) *Gauge {
	return own(s, name, &Gauge{owned: true}, func(r *Registry) map[string]*Gauge { return r.gauges })
}

// NewHistogram is NewCounter for a histogram with the given bounds.
func (s *Scope) NewHistogram(name string, bounds []int64) *Histogram {
	return own(s, name, newHistogram(bounds, true), func(r *Registry) map[string]*Histogram { return r.hists })
}

// own registers h under the scoped name in the map byName picks (nothing
// on a nil scope).
func own[T any](s *Scope, name string, h *T, byName func(*Registry) map[string]*T) *T {
	if s != nil {
		s.r.mu.Lock()
		byName(s.r)[s.prefix+name] = h
		s.r.mu.Unlock()
	}
	return h
}

// Scope returns a nested scope: metrics registered through it carry the
// "parent.child." prefix. Sharded subsystems use this to hand each shard
// its own metric namespace ("fleet.shard03.queue_depth") while keeping a
// single wire-up point. A nil scope nests to nil.
func (s *Scope) Scope(prefix string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.prefix + prefix + "."}
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnap is one histogram in a snapshot. Counts has one entry per
// bound plus the overflow bucket.
type HistogramSnap struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (q in (0, 1]) from the bucket counts
// by linear interpolation inside the covering bucket — the standard
// fixed-bucket estimator (what a Prometheus histogram_quantile computes),
// here so latency reports can quote p50/p95/p99 straight from a snapshot.
// The first bucket interpolates from 0; the overflow bucket interpolates
// toward the exact tracked Max, so the estimate never exceeds an observed
// value. Returns 0 on an empty histogram.
func (h HistogramSnap) Quantile(q float64) float64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	lo := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			if i < len(h.Bounds) {
				lo = float64(h.Bounds[i])
			}
			continue
		}
		hi := float64(h.Max)
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if hi > float64(h.Max) {
			hi = float64(h.Max) // bucket upper bound beyond anything observed
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += float64(c)
		lo = hi
	}
	return float64(h.Max)
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name within each kind.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Counter returns the named counter value (0 when absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge value (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram snapshot.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}

// Snapshot copies every metric. Values are read atomically per metric;
// the set of metrics is consistent, individual values are each atomic
// reads (a snapshot taken during updates is a valid interleaving). The
// output is deterministic: sorted by name, fixed bucket layout.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap.Counters = make([]CounterSnap, 0, len(r.counts))
	for name, c := range r.counts {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.v.Load()})
	}
	snap.Gauges = make([]GaugeSnap, 0, len(r.gauges))
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.v.Load()})
	}
	snap.Histograms = make([]HistogramSnap, 0, len(r.hists))
	for name, h := range r.hists {
		hs := HistogramSnap{
			Name:   name,
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Max:    h.max.Load(),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
