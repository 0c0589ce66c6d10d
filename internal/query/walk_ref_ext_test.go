package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/snapshot"
)

// TestKDWalkMatchesReference pins the kd walk — cut sets handed down the
// tree, partial leaves resolved column by column — to the per-entry walk it
// replaced (walk_ref_test.go): every estimator's answer equal bit for bit,
// on kd, TDS and full-domain releases, over the built index and the same
// release's OpenMapped snapshot, for queries restricting 3 to 8 attributes
// with no mask, a band mask, a mask with holes and an empty mask, under
// value maps that include ±Inf and NaN. A 66-attribute release takes
// queries restricting up to all 66, past the 63 ranges a cut set names
// one by one. Batched answers must equal the single ones at every
// GOMAXPROCS CI runs this test under.
func TestKDWalkMatchesReference(t *testing.T) {
	sd, err := sal.Generate(20000, 241)
	if err != nil {
		t.Fatal(err)
	}
	type release struct {
		name  string
		d     *dataset.Table
		hiers []*hierarchy.Hierarchy
		cfg   pg.Config
	}
	rels := []release{
		{"kd", sd, sal.Hierarchies(sd.Schema), pg.Config{K: 6, P: 0.3, Algorithm: pg.KD, Seed: 242}},
		{"tds", sd, sal.Hierarchies(sd.Schema), pg.Config{K: 6, P: 0.3, Algorithm: pg.TDS, Seed: 243}},
		{"full-domain", sd, sal.Hierarchies(sd.Schema), pg.Config{K: 6, P: 0.3, Algorithm: pg.FullDomain, Seed: 244}},
	}
	wd, wh := wideTable(66, 600, 245)
	rels = append(rels, release{"kd-66-attributes", wd, wh, pg.Config{K: 2, P: 0.5, Algorithm: pg.KD, Seed: 246}})

	for _, rel := range rels {
		pub, err := pg.Publish(rel.d, rel.hiers, rel.cfg)
		if err != nil {
			t.Fatalf("%s: %v", rel.name, err)
		}
		built, err := query.NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), rel.name+".pgsnap")
		if err := snapshot.Save(path, pub, nil); err != nil {
			t.Fatal(err)
		}
		m, err := snapshot.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s := pub.Schema
		rng := rand.New(rand.NewSource(247))
		var qs []query.CountQuery
		for i := 0; i < 240; i++ {
			restrict := 3 + i%6
			if s.D() > 8 {
				restrict = 3 + rng.Intn(s.D()-2)
			}
			qs = append(qs, query.CountQuery{QI: randomRanges(s, restrict, rng), Sensitive: randomMask(s, i%4, rng)})
		}
		values := nonFiniteValues(s.SensitiveDomain())
		for name, ix := range map[string]*query.Index{"built": built, "mapped": m.Index} {
			for i, q := range qs {
				if err := query.WalkMatchesReference(ix, q, values[i%len(values)]); err != nil {
					t.Fatalf("%s %s query %d: %v", rel.name, name, i, err)
				}
			}
			batch, err := ix.AnswerWorkload(qs, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if one, _ := ix.Count(q); math.Float64bits(one) != math.Float64bits(batch[i]) {
					t.Fatalf("%s %s query %d: batched %v, single %v", rel.name, name, i, batch[i], one)
				}
			}
		}
	}
}

// wideTable is a random table over d four-valued QI attributes and a
// ten-valued sensitive one, with their hierarchies.
func wideTable(d, n int, seed int64) (*dataset.Table, []*hierarchy.Hierarchy) {
	attrs := make([]*dataset.Attribute, d)
	hiers := make([]*hierarchy.Hierarchy, d)
	for j := range attrs {
		attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, 3)
		hiers[j] = hierarchy.MustInterval(4, 2)
	}
	vals := make([]string, 10)
	for y := range vals {
		vals[y] = fmt.Sprintf("s%d", y)
	}
	t := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", vals...)))
	rng := rand.New(rand.NewSource(seed))
	row := make([]int32, d+1)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = int32(rng.Intn(4))
		}
		row[d] = int32(rng.Intn(10))
		t.MustAppend(row)
	}
	return t, hiers
}

// randomRanges restricts restrict random attributes to random ranges, some
// narrow and some wide, and leaves the rest at their full domain.
func randomRanges(s *dataset.Schema, restrict int, rng *rand.Rand) []query.Range {
	q := make([]query.Range, s.D())
	for j := range q {
		q[j] = query.Range{Lo: 0, Hi: int32(s.QI[j].Size() - 1)}
	}
	for _, j := range rng.Perm(s.D())[:restrict] {
		size := s.QI[j].Size()
		lo := rng.Intn(size)
		hi := lo + rng.Intn(size-lo)
		if lo == 0 && hi == size-1 {
			hi-- // the range must restrict
		}
		q[j] = query.Range{Lo: int32(lo), Hi: int32(hi)}
	}
	return q
}

// randomMask is the sensitive mask of a kind: none, a contiguous band, a
// random set with holes, or the empty set.
func randomMask(s *dataset.Schema, kind int, rng *rand.Rand) []bool {
	dom := s.SensitiveDomain()
	switch kind {
	case 0:
		return nil
	case 1:
		m := make([]bool, dom)
		lo := rng.Intn(dom)
		hi := lo + rng.Intn(dom-lo)
		for y := lo; y <= hi; y++ {
			m[y] = true
		}
		return m
	case 2:
		m := make([]bool, dom)
		for y := range m {
			m[y] = rng.Intn(3) == 0
		}
		m[0], m[1], m[2] = true, false, true
		return m
	default:
		return make([]bool, dom)
	}
}

// nonFiniteValues are SUM/AVG value maps: the identity, and maps that put
// +Inf, -Inf or NaN on some codes, so a term that multiplies such a value by
// a zero volume fraction would turn a finite answer into NaN.
func nonFiniteValues(dom int) []query.SensitiveValue {
	return []query.SensitiveValue{
		func(y int32) float64 { return float64(y) },
		func(y int32) float64 {
			switch int(y) {
			case dom - 1:
				return math.Inf(1)
			case dom / 2:
				return math.NaN()
			}
			return 2000*float64(y) + 1000
		},
		func(y int32) float64 {
			if y == 0 {
				return math.Inf(-1)
			}
			return -float64(y)
		},
	}
}
