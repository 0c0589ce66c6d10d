// Package obs is the pipeline's observability layer: a zero-dependency,
// low-overhead metrics core shared by the PG publisher, the Phase-2
// algorithms, and the query-serving engine. It provides three instrument
// kinds — monotone Counters, last-value Gauges, and streaming latency
// Histograms over fixed log-spaced buckets — plus a Span timer API,
// all collected in a Registry with deterministically ordered text and JSON
// exporters, optional expvar publication, and an optional debug HTTP server
// (net/http/pprof, /metrics, /healthz; see server.go).
//
// # The nil fast path
//
// Instrumentation must cost nothing when nobody is looking. Every method in
// this package is safe on a nil receiver: a nil *Registry hands out nil
// instruments, and a nil *Counter/*Gauge/*Histogram turns every operation
// into a single branch. Hot paths therefore hold instrument pointers
// unconditionally —
//
//	c := cfg.Metrics.Counter("pg.phase1.rows") // nil when Metrics is nil
//	...
//	c.Add(int64(n))                            // one predictable branch
//
// — and pay one well-predicted comparison per call site when metrics are
// disabled. The instrumentation-overhead benchmark (BenchmarkPublishParallel
// vs the metrics-on variant in the repository root) pins this at <2%.
//
// # Determinism
//
// Export ordering is deterministic: instruments print sorted by name, and
// identical observation sequences produce byte-identical exports regardless
// of how many goroutines recorded them (TestRegistryExportDeterministic).
// Counter values the pipeline records (rows scanned, groups built, lattice
// nodes evaluated, ...) are themselves worker-count-invariant, mirroring the
// byte-identical-output contract of pg.Publish; timing histograms are the
// one instrument whose *values* vary run to run.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil *Counter discards all updates (the disabled-metrics fast path).
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins int64 instrument (sizes, configuration knobs,
// high-water marks). The zero value is ready; nil discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the last value set (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket geometry: values 0..2·sub-1 get exact unit buckets;
// above that, each power-of-two octave is divided into histSub log-spaced
// sub-buckets, giving a worst-case relative quantile error of 1/histSub
// (±6.25% at histSub = 16) across the full int64 range.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per octave
	histExact   = 2 * histSub      // values below this index themselves
	// histBuckets covers octaves up to 2^63.
	histBuckets = histExact + (64-histSubBits-1)*histSub
)

// Histogram is a streaming distribution sketch over fixed log-spaced
// buckets: constant memory, lock-free atomic recording, and p50/p95/p99
// export with bounded relative error. Negative observations are clamped to
// zero (the instrument is meant for durations and sizes). The zero value is
// ready; a nil *Histogram discards observations.
type Histogram struct {
	unit    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a non-negative value to its bucket index (monotone in v).
func bucketOf(v int64) int {
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	n := bits.Len64(u) // >= histSubBits+2
	sub := (u >> (n - 1 - histSubBits)) & (histSub - 1)
	return histExact + (n-histSubBits-2)*histSub + int(sub)
}

// bucketLo returns the smallest value mapping to bucket i, and the bucket's
// width (bucketLo(i)+width(i) is the next bucket's low bound).
func bucketLo(i int) (lo, width int64) {
	if i < histExact {
		return int64(i), 1
	}
	o := (i - histExact) / histSub
	sub := (i - histExact) % histSub
	n := o + histSubBits + 2
	width = int64(1) << (n - 1 - histSubBits)
	return int64(1)<<(n-1) + int64(sub)*width, width
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; the CAS loops below converge even
		// when racing with it.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the bucket
// holding the q·Count-th observation, clamped to the observed min/max. It
// returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			lo, width := bucketLo(i)
			v := lo + (width-1)/2
			if mn := h.min.Load(); v < mn {
				v = mn
			}
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.max.Load()
}

// Span is an in-flight timed section started by Registry.Span. The zero
// value (from a nil registry) is inert.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// End records the span's elapsed time into its histogram and returns it
// (0 on an inert span).
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.h.Observe(d.Nanoseconds())
	return d
}

// Registry is a process-wide collection of named instruments. Lookup is
// get-or-create: the same name always yields the same instrument, so
// wiring code can re-resolve names instead of threading pointers. All
// methods are safe for concurrent use, and all are no-ops returning nil
// instruments on a nil *Registry — the one-branch disabled path.
//
// Names are dot-separated lowercase paths ("pg.phase1.rows"); the full
// vocabulary the pipeline emits is catalogued in docs/OBSERVABILITY.md.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given unit on first use (the unit of an existing histogram is kept).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name, unit string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{unit: unit}
		r.hists[name] = h
	}
	return h
}

// Span starts a timer recorded into the nanosecond histogram name when the
// returned Span's End is called. On a nil registry the Span is inert.
func (r *Registry) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{h: r.Histogram(name, "ns"), t0: time.Now()}
}

// sortedKeys returns the sorted names of one instrument map; callers hold
// the registry lock while copying.
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String summarizes the registry's size (the full rendering is WriteText).
func (r *Registry) String() string {
	if r == nil {
		return "<nil registry>"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("%d counters, %d gauges, %d histograms",
		len(r.counters), len(r.gauges), len(r.hists))
}
