package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryFastPath(t *testing.T) {
	var r *Registry
	if c := r.Counter("x"); c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	if g := r.Gauge("x"); g != nil {
		t.Fatalf("nil registry returned non-nil gauge")
	}
	if h := r.Histogram("x", "ns"); h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	// All of these must be silent no-ops.
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram not inert")
	}
	sp := r.Span("x")
	if d := sp.End(); d != 0 {
		t.Fatalf("inert span reported %v", d)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteText: %v, %q", err, buf.String())
	}
	if err := r.WriteJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteJSON: %v, %q", err, buf.String())
	}
	if err := r.PublishExpvar("nil-reg"); err != nil {
		t.Fatalf("nil registry PublishExpvar: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("a.g")
	g.Set(10)
	g.Set(-2)
	if g.Value() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Value())
	}
	if r.Gauge("a.g") != g {
		t.Fatalf("Gauge is not get-or-create")
	}
}

// TestHistogramBucketsMonotone checks the bucket mapping is monotone and
// that bucketLo inverts bucketOf at every bucket boundary.
func TestHistogramBucketsMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 40, 1 << 62} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d (not monotone)", v, b, prev)
		}
		prev = b
		lo, width := bucketLo(b)
		if v < lo || v >= lo+width {
			t.Fatalf("value %d not inside its bucket %d = [%d, %d)", v, b, lo, lo+width)
		}
	}
	if b := bucketOf(1<<63 - 1); b >= histBuckets {
		t.Fatalf("max value bucket %d out of range %d", b, histBuckets)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "ns")
	// 1..1000: exact answers would be p50=500, p95=950, p99=990; buckets
	// guarantee ~6.25% relative error.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	check := func(q float64, want int64) {
		got := h.Quantile(q)
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.08 {
			t.Errorf("q%.2f = %d, want within 8%% of %d", q, got, want)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if h.Quantile(0) < 1 || h.Quantile(1) > 1000 {
		t.Fatalf("extreme quantiles outside observed range: q0=%d q1=%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramClampsNegative(t *testing.T) {
	h := NewRegistry().Histogram("x", "ns")
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("phase")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("span elapsed %v < 1ms", d)
	}
	h := r.Histogram("phase", "ns")
	if h.Count() != 1 || h.Sum() < int64(time.Millisecond) {
		t.Fatalf("span not recorded: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// fill records a fixed observation set into a fresh registry using the given
// number of goroutines. The per-goroutine interleaving differs, but the
// recorded multiset is identical, so exports must match byte for byte.
func fill(workers int) *Registry {
	r := NewRegistry()
	c := r.Counter("pipeline.rows")
	g := r.Gauge("pipeline.workers")
	h := r.Histogram("pipeline.latency", "ns")
	const n = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				c.Add(int64(i % 7))
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	g.Set(int64(16)) // fixed, not worker-dependent
	return r
}

// TestRegistryExportDeterministic is the metrics determinism test: the text
// and JSON exports of identical observation multisets are byte-identical
// across runs and worker counts.
func TestRegistryExportDeterministic(t *testing.T) {
	var ref string
	for _, workers := range []int{1, 4, 16} {
		for rep := 0; rep < 3; rep++ {
			r := fill(workers)
			var text, js bytes.Buffer
			if err := r.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			out := text.String() + "\n---\n" + js.String()
			if ref == "" {
				ref = out
				continue
			}
			if out != ref {
				t.Fatalf("export differs at workers=%d rep=%d:\n%s\nwant:\n%s", workers, rep, out, ref)
			}
		}
	}
	if !strings.Contains(ref, "counter pipeline.rows") {
		t.Fatalf("export missing counter line:\n%s", ref)
	}
}

// TestConcurrentHammer drives counters, gauges, and histograms from 16
// goroutines; run under -race (the CI test job does) this is the layer's
// data-race certification. Totals are checked for lost updates.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		perG       = 20000
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix creation and recording: get-or-create must be safe too.
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.hist", "ns")
			g := r.Gauge("hammer.gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i & 1023))
				g.Set(int64(w))
				if i%512 == 0 {
					r.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer.count").Value(); got != goroutines*perG {
		t.Fatalf("lost counter updates: %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("hammer.hist", "ns")
	if h.Count() != goroutines*perG {
		t.Fatalf("lost histogram updates: %d, want %d", h.Count(), goroutines*perG)
	}
	if h.min.Load() != 0 || h.max.Load() != 1023 {
		t.Fatalf("min/max = %d/%d, want 0/1023", h.min.Load(), h.max.Load())
	}
}

func TestPublishExpvarDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.PublishExpvar("obs-test-dup"); err != nil {
		t.Fatalf("first publication: %v", err)
	}
	if err := NewRegistry().PublishExpvar("obs-test-dup"); err == nil {
		t.Fatalf("duplicate publication did not error")
	}
}
