package query

import (
	"math/rand"
	"runtime"
	"testing"

	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// Every Count resolves through exactly one of the three answer paths, so the
// path counters partition the workload, and each call lands one latency
// observation. The split itself is a property of the query set and the
// index — not of the GOMAXPROCS AnswerWorkload fans out over.
func TestIndexMetricsPartitionQueries(t *testing.T) {
	d, err := sal.Generate(2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Workload(d.Schema, WorkloadConfig{
		Queries: 300, QIFraction: 0.3, RestrictAttrs: 2, SensitiveFraction: 0.4,
		Rng: rand.New(rand.NewSource(33)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Widen some queries past two restricted attributes so the kd path is
	// exercised alongside the grid path.
	wide, err := Workload(d.Schema, WorkloadConfig{
		Queries: 50, QIFraction: 0.3, RestrictAttrs: 4, SensitiveFraction: 0.4,
		Rng: rand.New(rand.NewSource(34)),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs, wide...)

	var ref map[string]int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		reg := obs.NewRegistry()
		ix, err := NewIndexObserved(pub, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.AnswerWorkload(qs); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		grid := snap.Counters["query.answered.grid"]
		re := snap.Counters["query.answered.exact_reanswer"]
		kd := snap.Counters["query.answered.kd"]
		if grid+re+kd != int64(len(qs)) {
			t.Fatalf("GOMAXPROCS=%d: answer paths %d+%d+%d != %d queries", procs, grid, re, kd, len(qs))
		}
		if grid == 0 || kd == 0 {
			t.Fatalf("GOMAXPROCS=%d: expected both grid (%d) and kd (%d) paths exercised", procs, grid, kd)
		}
		h := snap.Histograms["query.count.latency"]
		if h.Count != int64(len(qs)) {
			t.Fatalf("GOMAXPROCS=%d: latency observations %d != %d queries", procs, h.Count, len(qs))
		}
		if snap.Gauges["query.index.entries"] != int64(ix.Groups()) {
			t.Fatalf("query.index.entries = %d, want %d", snap.Gauges["query.index.entries"], ix.Groups())
		}
		if snap.Histograms["query.index.build"].Count != 1 {
			t.Fatal("index build span not recorded")
		}
		paths := map[string]int64{"grid": grid, "reanswer": re, "kd": kd}
		if ref == nil {
			ref = paths
		} else if paths["grid"] != ref["grid"] || paths["reanswer"] != ref["reanswer"] || paths["kd"] != ref["kd"] {
			t.Fatalf("answer-path split varies with GOMAXPROCS: %v vs %v", paths, ref)
		}
	}
}

// An index built without a registry keeps all instruments nil and answers
// identically.
func TestIndexMetricsDisabled(t *testing.T) {
	d, err := sal.Generate(500, 35)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0.3, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := NewIndexObserved(pub, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	q := fullQuery(d.Schema)
	a, err := plain.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := observed.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("instrumented Count %v != plain Count %v", b, a)
	}
}
