// Package obs is the repo's zero-dependency observability core: named
// counters, gauges, log2-bucketed histograms, and duration spans,
// collected in a Registry whose JSON snapshot is deterministic (sorted
// keys, stable bucket layout).
//
// Two properties make the package safe to leave compiled into the hot
// paths:
//
//   - metric handles are plain atomics — an increment after the one-time
//     name lookup is a single atomic add, cheap enough that the
//     simulation engine keeps its instrumentation on unconditionally
//     (the recorded overhead bound is <2% on BenchmarkSimPredictor);
//   - the package never reads the wall clock. Durations come from a
//     Clock injected per registry (see SetClock); with no clock
//     installed, spans still count but record zero duration, so every
//     measurement path honors bplint's det-time rule and counter values
//     stay bit-identical across runs and parallelism levels.
//
// The process-wide Default registry is the sink for instrumentation that
// has no options struct to thread a registry through (e.g. the
// trace packing); everything options-based (sim.Options, the experiment
// suite's Config) accepts an explicit *Registry and falls back to
// Default when given nil.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Clock returns monotonic nanoseconds. It is injected (never read from
// time.Now inside measurement paths) so deterministic runs can omit it
// entirely; SystemClock is the single sanctioned real implementation.
type Clock func() int64

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 metric (e.g. an occupancy or high-water
// mark).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed histogram resolution: bucket 0 holds the
// value 0, bucket i>0 holds values in [2^(i-1), 2^i). 64 buckets cover
// every non-negative int64 (bits.Len64 of math.MaxInt64 is 63).
const histBuckets = 64

// Histogram counts observations into fixed log2 buckets. The layout is
// deliberately static — no dynamic rebucketing — so two histograms that
// saw the same multiset of values snapshot to identical bytes.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero (durations
// from a monotonic clock are non-negative; the clamp keeps a misbehaving
// clock from corrupting the bucket index).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketLo returns bucket i's inclusive lower bound (0, 1, 2, 4, ...).
func BucketLo(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// Registry holds named metrics. Handle lookup takes a mutex; the
// returned handles are lock-free, so hot paths look a handle up once (or
// tolerate the lookup per run — a map read per simulation, not per
// record).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	clock    atomic.Value // Clock
}

// New returns an empty registry with no clock installed.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide sink (see Default).
var defaultRegistry = New()

// Default returns the process-wide registry. Instrumentation that has no
// options struct to thread an explicit registry through writes here, and
// options-based callers fall back to it when configured with nil.
func Default() *Registry { return defaultRegistry }

// Or returns r, or the Default registry when r is nil — the one-line
// fallback every options consumer uses.
func Or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return defaultRegistry
}

// SetClock installs the duration source for spans. Passing nil removes
// it (spans then record zero durations but still count). Safe to call
// concurrently with measurements.
func (r *Registry) SetClock(c Clock) { r.clock.Store(c) }

// clockFn returns the installed clock, or nil.
func (r *Registry) clockFn() Clock {
	c, _ := r.clock.Load().(Clock)
	return c
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Span is one in-progress duration measurement. End records the elapsed
// nanoseconds into the span's histogram; with no clock installed the
// observation is zero, so the histogram's count still tracks how often
// the spanned path ran (deterministically), while its sum and buckets
// only carry signal on clock-bearing runs.
type Span struct {
	h     *Histogram
	clock Clock
	start int64
}

// StartSpan opens a span recording into the histogram "<name>.ns".
func (r *Registry) StartSpan(name string) Span {
	s := Span{h: r.Histogram(name + ".ns")}
	if c := r.clockFn(); c != nil {
		s.clock = c
		s.start = c()
	}
	return s
}

// End closes the span. Calling End on a zero Span is a no-op.
func (s Span) End() {
	if s.h == nil {
		return
	}
	var d int64
	if s.clock != nil {
		d = s.clock() - s.start
	}
	s.h.Observe(d)
}
