package query

import (
	"testing"

	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// Allocation budgets of the serving hot path, held at the counts measured
// when they were set: a regression that adds a heap allocation per query
// fails tier-1 even on a one-CPU host, where timings are too noisy to gate.
func TestIndexCountAllocs(t *testing.T) {
	ix, reg, grid, kd := allocIndex(t)
	band := make([]bool, ix.Schema().SensitiveDomain())
	band[0], band[1] = true, true
	for _, tc := range []struct {
		name   string
		q      CountQuery
		path   string // the answer-path counter the query must land in
		budget float64
	}{
		// One allocation is the active-range list, the second the mask's
		// dense weight vector.
		{"grid", CountQuery{QI: grid}, "query.answered.grid", 1},
		{"grid-band", CountQuery{QI: grid, Sensitive: band}, "query.answered.grid", 2},
		{"kd", CountQuery{QI: kd}, "query.answered.kd", 1},
		{"kd-band", CountQuery{QI: kd, Sensitive: band}, "query.answered.kd", 2},
	} {
		before := reg.Counter(tc.path).Value()
		if _, err := ix.Count(tc.q); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reg.Counter(tc.path).Value() != before+1 {
			t.Fatalf("%s: not answered on the %s path", tc.name, tc.path)
		}
		n := testing.AllocsPerRun(50, func() { ix.Count(tc.q) })
		if n > tc.budget {
			t.Errorf("Index.Count %s: %v allocs per call, budget %v", tc.name, n, tc.budget)
		}
	}
}

// TestIndexAvgPartsAllocs budgets the SUM/AVG compose form on both answer
// paths. One allocation is the active-range list, the second the dense
// value vector sumWeight builds.
func TestIndexAvgPartsAllocs(t *testing.T) {
	ix, reg, grid, kd := allocIndex(t)
	value := func(y int32) float64 { return float64(y) }
	for _, tc := range []struct {
		name   string
		qi     []Range
		path   string
		budget float64
	}{
		{"grid", grid, "query.answered.grid", 2},
		{"kd", kd, "query.answered.kd", 2},
	} {
		q := CountQuery{QI: tc.qi}
		before := reg.Counter(tc.path).Value()
		if _, _, err := ix.AvgParts(q, value); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reg.Counter(tc.path).Value() != before+1 {
			t.Fatalf("%s: not answered on the %s path", tc.name, tc.path)
		}
		n := testing.AllocsPerRun(50, func() { ix.AvgParts(q, value) })
		if n > tc.budget {
			t.Errorf("Index.AvgParts %s: %v allocs per call, budget %v", tc.name, n, tc.budget)
		}
	}
}

// allocIndex is the allocation tests' observed index over a 4k-row SAL
// release, with a query the grid answers (two restricted attributes) and
// one only the kd traversal does (four).
func allocIndex(t *testing.T) (ix *Index, reg *obs.Registry, grid, kd []Range) {
	t.Helper()
	d, err := sal.Generate(4000, 71)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	if ix, err = NewIndexObserved(pub, reg); err != nil {
		t.Fatal(err)
	}
	full := func() []Range {
		q := make([]Range, d.Schema.D())
		for j := range q {
			q[j] = Range{Lo: 0, Hi: int32(d.Schema.QI[j].Size() - 1)}
		}
		return q
	}
	grid, kd = full(), full()
	grid[0] = Range{Lo: 10, Hi: 40}
	grid[3] = Range{Lo: 1, Hi: 3}
	for _, j := range []int{0, 1, 3, 5} {
		kd[j].Hi = kd[j].Hi / 2
	}
	return ix, reg, grid, kd
}
