package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 100 samples: err = %v, want errTooFewSamples", err)
	}
	v, err := percentile(xs, 0.9)
	if err != nil || v != 89 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 89 with ten samples beyond", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p50 of 19 samples: err = %v, want errTooFewSamples", err)
	}
}

func TestScheduleRepeatsForSeed(t *testing.T) {
	draw := func(seed int64) []arrival {
		rng := rand.New(rand.NewSource(seed))
		return poisson(rng, 2000, time.Second, func() int { return rng.Intn(100) })
	}
	a, b := draw(7), draw(7)
	if len(a) < 1500 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave %d then %d arrivals, or different ones", len(a), len(b))
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

// A server that stalls its first two requests by 50 ms holds both senders;
// the arrivals due meanwhile queue in the generator, and their latency,
// counted from the due time, includes the wait.
func TestStallCountsInLatency(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	ep, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"estimate":1}`))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.close()
	senders := newSenders(2)
	defer closeSenders(senders)
	sched := make([]arrival, 1200)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * 100 * time.Microsecond}
	}
	ex := openLoop(senders, sched, func(*exchange) {}, func(s *sender, e *exchange) { s.post(ep.url, []byte(`{}`), e) })
	for i := range ex {
		if ex[i].err != nil {
			t.Fatalf("request %d: %v", i, ex[i].err)
		}
	}
	// Request 10 was due 1 ms in and could not be sent before a sender freed.
	if lat := time.Duration(ex[10].latency()); lat < stall-2*time.Millisecond {
		t.Errorf("latency of a request queued behind the stall = %v, want at least about %v", lat, stall)
	}
	late, backlog, err := genStats(ex)
	if err != nil {
		t.Fatal(err)
	}
	if late < 40e3 || backlog < 100 {
		t.Errorf("gen.late_p99_us = %.0f, gen.backlog_max = %d; want the 50 ms stall to show", late, backlog)
	}
}

// The smoke test runs every workload end to end, untraced and traced, at a
// tiny size, and checks the result lines against BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	want := func(ms []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	out := t.TempDir()
	for _, trace := range []bool{false, true} {
		metrics := want(spec.EndToEnd)
		if trace {
			metrics = want(spec.PerLayer)
		}
		for _, w := range workloads {
			start := time.Now()
			rep, _, err := runWorkload(options{
				cfg: tinyConfig(), workload: w, seed: 3, window: 600 * time.Millisecond, trace: trace, out: out,
			})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, metrics) {
				t.Errorf("%s (trace %v) reports %v, BENCHMARK.json lists %v", w, trace, sortedKeys(got), sortedKeys(metrics))
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d operations failed", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			t.Logf("%s (trace %v): %d operations in %v", w, trace, rep.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
