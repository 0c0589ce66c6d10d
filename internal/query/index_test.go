package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// agree is the equivalence tolerance between the index and scan paths: the
// two accumulate identical terms in different orders (the index pre-sums
// contained subtrees), so answers agree to floating-point summation error —
// 1e-9 relative to the answer magnitude.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// indexPubs publishes one small SAL table under each Phase-2 algorithm.
func indexPubs(t *testing.T, n int, seed int64) (*dataset.Table, map[string]*pg.Published) {
	t.Helper()
	d, err := sal.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	pubs := make(map[string]*pg.Published)
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: 6, P: 0.3, Algorithm: alg, Seed: seed + int64(alg),
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		pubs[alg.String()] = pub
	}
	return d, pubs
}

// checkAllEstimators compares every index method against its scan twin on
// one query.
func checkAllEstimators(t *testing.T, pub *pg.Published, ix *Index, q CountQuery, label string) {
	t.Helper()
	scan, err1 := Estimate(pub, q)
	idx, err2 := ix.Count(q)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: Count errors diverge: scan %v, index %v", label, err1, err2)
	}
	if err1 == nil && !agree(scan, idx) {
		t.Fatalf("%s: Count: scan %v, index %v", label, scan, idx)
	}
	scan, err1 = EstimateNaive(pub, q)
	idx, err2 = ix.Naive(q)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: Naive errors diverge: scan %v, index %v", label, err1, err2)
	}
	if err1 == nil && !agree(scan, idx) {
		t.Fatalf("%s: Naive: scan %v, index %v", label, scan, idx)
	}
	if q.Sensitive != nil {
		return // SUM/AVG take no sensitive mask
	}
	sum, weight, err2 := ix.AvgParts(q, IncomeMidpoint)
	scan, err1 = EstimateSum(pub, q, IncomeMidpoint)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: Sum errors diverge: scan %v, index %v", label, err1, err2)
	}
	if err1 == nil && !agree(scan, sum) {
		t.Fatalf("%s: Sum: scan %v, index %v", label, scan, sum)
	}
	// AVG is the index's sum over its weight, undefined on an empty region.
	scan, err1 = EstimateAvg(pub, q, IncomeMidpoint)
	if (err1 == nil) != (err2 == nil && weight != 0) {
		t.Fatalf("%s: Avg errors diverge: scan %v, index %v (weight %v)", label, err1, err2, weight)
	}
	if err1 == nil && !agree(scan, sum/weight) {
		t.Fatalf("%s: Avg: scan %v, index %v", label, scan, sum/weight)
	}
}

// The satellite property: index answers match the scan estimators across
// random workloads, for all three Phase-2 algorithms, with sensitive masks
// on and off.
func TestIndexMatchesScanAllAlgorithms(t *testing.T) {
	d, pubs := indexPubs(t, 3000, 21)
	for name, pub := range pubs {
		ix, err := NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Groups() == 0 || ix.Groups() > pub.Len() {
			t.Fatalf("%s: %d groups from %d rows", name, ix.Groups(), pub.Len())
		}
		rng := rand.New(rand.NewSource(22))
		for _, cfg := range []WorkloadConfig{
			{Queries: 30, QIFraction: 0.4, RestrictAttrs: 3, Rng: rng},
			{Queries: 30, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng},
			{Queries: 10, QIFraction: 0.05, RestrictAttrs: 0, SensitiveFraction: 0.1, Rng: rng},
		} {
			qs, err := Workload(d.Schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				checkAllEstimators(t, pub, ix, q, name)
			}
		}
	}
}

// Edge ranges: the full domain (every box contained — the pure pre-aggregate
// path) and degenerate point ranges that hit nothing.
func TestIndexEdgeRanges(t *testing.T) {
	d, pubs := indexPubs(t, 2000, 23)
	for name, pub := range pubs {
		ix, err := NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		full := fullQuery(d.Schema)
		got, err := ix.Count(full)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(d.Len())) > 1e-9 {
			t.Fatalf("%s: full-domain indexed count = %v, want %d", name, got, d.Len())
		}
		checkAllEstimators(t, pub, ix, full, name+"/full")
		// A zero-volume region: single-point ranges on every attribute. At
		// most one box covers the point; scan and index must agree exactly.
		point := fullQuery(d.Schema)
		for j := range point.QI {
			point.QI[j] = Range{Lo: 0, Hi: 0}
		}
		checkAllEstimators(t, pub, ix, point, name+"/point")
		// A sensitive mask over the point region too.
		point.Sensitive = make([]bool, d.Schema.SensitiveDomain())
		point.Sensitive[0] = true
		checkAllEstimators(t, pub, ix, point, name+"/point+mask")
	}
}

// An empty publication must index and answer zeros, with AVG erroring the
// same way the scan path does.
func TestIndexEmptyPublication(t *testing.T) {
	s := sal.Schema()
	pub, err := pg.FromColumns(pg.Published{Schema: s, P: 0.3, K: 6}, &pg.RowColumns{D: s.D()})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Groups() != 0 {
		t.Fatalf("empty publication has %d groups", ix.Groups())
	}
	q := fullQuery(s)
	checkAllEstimators(t, pub, ix, q, "empty")
	if got, err := ix.Count(q); err != nil || got != 0 {
		t.Fatalf("empty Count = %v, %v", got, err)
	}
	q.Sensitive = make([]bool, s.SensitiveDomain())
	q.Sensitive[3] = true
	if got, err := ix.Count(q); err != nil || got != 0 {
		t.Fatalf("empty masked Count = %v, %v", got, err)
	}
	if sum, weight, err := ix.AvgParts(fullQuery(s), IncomeMidpoint); err != nil || sum != 0 || weight != 0 {
		t.Fatalf("empty AvgParts = %v, %v, %v, want 0, 0", sum, weight, err)
	}
	if got, err := ix.Naive(q); err != nil || got != 0 {
		t.Fatalf("empty Naive = %v, %v, want 0", got, err)
	}
}

// Index methods validate queries exactly like the scan estimators.
func TestIndexValidation(t *testing.T) {
	d, err := sal.Generate(800, 25)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0.3, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	bad := fullQuery(d.Schema)
	bad.QI[0] = Range{Lo: 5, Hi: 2}
	if _, err := ix.Count(bad); err == nil {
		t.Fatal("inverted range: want error")
	}
	if _, err := ix.Naive(bad); err == nil {
		t.Fatal("inverted range (naive): want error")
	}
	if _, _, err := ix.AvgParts(bad, IncomeMidpoint); err == nil {
		t.Fatal("inverted range (sum): want error")
	}
	masked := fullQuery(d.Schema)
	masked.Sensitive = make([]bool, d.Schema.SensitiveDomain())
	if _, _, err := ix.AvgParts(masked, IncomeMidpoint); err == nil {
		t.Fatal("sensitive mask on SUM: want error")
	}
	// p = 0 releases reject sensitive predicates on both paths.
	pub0, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := NewIndex(pub0)
	if err != nil {
		t.Fatal(err)
	}
	m := fullQuery(d.Schema)
	m.Sensitive = make([]bool, d.Schema.SensitiveDomain())
	m.Sensitive[0] = true
	if _, err := ix0.Count(m); err == nil {
		t.Fatal("sensitive predicate at p=0: want error")
	}
	if _, _, err := ix0.AvgParts(fullQuery(d.Schema), IncomeMidpoint); err == nil {
		t.Fatal("SUM at p=0: want error")
	}
	if _, err := NewIndex(nil); err == nil {
		t.Fatal("nil publication: want error")
	}
}

// Property over random workload seeds (quick.Check): indexed counts always
// match the scan within tolerance.
func TestIndexMatchesScanQuick(t *testing.T) {
	d, err := sal.Generate(4000, 28)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, masked bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := WorkloadConfig{Queries: 4, QIFraction: 0.35, RestrictAttrs: 3, Rng: rng}
		if masked {
			cfg.SensitiveFraction = 0.3
		}
		qs, err := Workload(d.Schema, cfg)
		if err != nil {
			return false
		}
		for _, q := range qs {
			scan, err1 := Estimate(pub, q)
			idx, err2 := ix.Count(q)
			if err1 != nil || err2 != nil || !agree(scan, idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
