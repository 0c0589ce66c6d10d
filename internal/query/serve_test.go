package query

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// The repo's parallelism invariant applied to serving: AnswerWorkload output
// is byte-identical at any GOMAXPROCS.
func TestAnswerWorkloadDeterminism(t *testing.T) {
	d, err := sal.Generate(5000, 41)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	qs, err := Workload(d.Schema, WorkloadConfig{
		Queries: 200, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w1, err := ix.AnswerWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	w8, err := ix.AnswerWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if math.Float64bits(w1[i]) != math.Float64bits(w8[i]) {
			t.Fatalf("query %d: GOMAXPROCS=1 gives %v, GOMAXPROCS=8 gives %v", i, w1[i], w8[i])
		}
	}
	// And every batched answer is bit-identical to the single-query path.
	for i, q := range qs {
		v, err := ix.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(w1[i]) {
			t.Fatalf("query %d: Count gives %v, AnswerWorkload gives %v", i, v, w1[i])
		}
	}
}

// Workload errors report the first failing query by position, independent of
// scheduling.
func TestAnswerWorkloadError(t *testing.T) {
	d, err := sal.Generate(800, 44)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0.3, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]CountQuery, 8)
	for i := range qs {
		qs[i] = fullQuery(d.Schema)
	}
	qs[3].QI[0] = Range{Lo: 7, Hi: 2}
	qs[6].QI[0] = Range{Lo: 9, Hi: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ans, err := ix.AnswerWorkload(qs)
		if err == nil || ans != nil {
			t.Fatalf("GOMAXPROCS=%d: want error and nil answers, got %v, %v", procs, ans, err)
		}
		if !strings.Contains(err.Error(), "query 3") {
			t.Fatalf("GOMAXPROCS=%d: error should name query 3, got %v", procs, err)
		}
	}
}

// An empty workload answers an empty slice.
func TestAnswerWorkloadEmpty(t *testing.T) {
	d, err := sal.Generate(800, 46)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0.3, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ix.AnswerWorkload(nil)
	if err != nil || len(ans) != 0 {
		t.Fatalf("empty workload: %v, %v", ans, err)
	}
}
