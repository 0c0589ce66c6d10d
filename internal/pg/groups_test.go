package pg

import (
	"encoding/binary"
	"reflect"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/sal"
)

// Aggregates folds rows sharing a box into one entry, in first-appearance
// order, with G-weighted histograms.
func TestAggregatesCollapse(t *testing.T) {
	s := sal.Schema()
	box := func(lo, hi int32) generalize.Box {
		d := s.D()
		b := generalize.Box{Lo: make([]int32, d), Hi: make([]int32, d)}
		for j := range b.Lo {
			b.Lo[j], b.Hi[j] = lo, hi
		}
		return b
	}
	pub := fromRows(t, s, []Row{
		{Box: box(0, 3), Value: 0, G: 2},
		{Box: box(4, 7), Value: 1, G: 4},
		{Box: box(0, 3), Value: 1, G: 3},
	})
	aggs := pub.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(aggs))
	}
	if !aggs[0].Box.Equal(box(0, 3)) || !aggs[1].Box.Equal(box(4, 7)) {
		t.Fatal("aggregates not in first-appearance order")
	}
	if aggs[0].G != 5 || aggs[0].Hist[0] != 2 || aggs[0].Hist[1] != 3 {
		t.Fatalf("merged entry wrong: G=%d hist=%v", aggs[0].G, aggs[0].Hist[:2])
	}
	if aggs[1].G != 4 || aggs[1].Hist[1] != 4 {
		t.Fatalf("singleton entry wrong: G=%d hist=%v", aggs[1].G, aggs[1].Hist[:2])
	}
}

// On a real publication every histogram sums to its entry's G and the
// total weight equals |D| (kd-cells partition all microdata rows).
func TestAggregatesWeights(t *testing.T) {
	d, err := sal.Generate(3000, 51)
	if err != nil {
		t.Fatal(err)
	}
	var hiers []*hierarchy.Hierarchy = sal.Hierarchies(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 6, P: 0.3, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	aggs := pub.Aggregates()
	if len(aggs) == 0 || len(aggs) > pub.Len() {
		t.Fatalf("%d aggregates from %d rows", len(aggs), pub.Len())
	}
	total := 0
	for i, a := range aggs {
		sum := int64(0)
		for _, h := range a.Hist {
			sum += h
		}
		if sum != int64(a.G) {
			t.Fatalf("aggregate %d: histogram sums to %d, G = %d", i, sum, a.G)
		}
		total += a.G
	}
	if total != d.Len() {
		t.Fatalf("total weight %d, want %d", total, d.Len())
	}
}

// An empty publication aggregates to an empty, non-nil slice — the contract
// index construction relies on (see query.NewIndex).
func TestAggregatesEmpty(t *testing.T) {
	pub := fromRows(t, sal.Schema(), nil)
	aggs := pub.Aggregates()
	if len(aggs) != 0 {
		t.Fatalf("empty publication gave %d aggregates", len(aggs))
	}
	if aggs == nil {
		t.Fatal("empty publication gave a nil slice, want empty non-nil")
	}
}

// refAggregates is Aggregates as it was before the hashed collapse: a map
// keyed on each box's byte encoding and four allocations per entry. Kept
// test-only as the reference the collapse must reproduce exactly.
func refAggregates(p *Published) []BoxAggregate {
	c := p.Columns()
	domain := p.Schema.SensitiveDomain()
	idx := make(map[string]int, c.N)
	out := make([]BoxAggregate, 0, c.N)
	var key []byte
	for i := 0; i < c.N; i++ {
		key = key[:0]
		for j := 0; j < c.D; j++ {
			key = binary.LittleEndian.AppendUint32(key, uint32(c.Lo[j*c.N+i]))
			key = binary.LittleEndian.AppendUint32(key, uint32(c.Hi[j*c.N+i]))
		}
		a, ok := idx[string(key)]
		if !ok {
			a = len(out)
			idx[string(key)] = a
			out = append(out, BoxAggregate{Box: c.Row(i).Box, Hist: make([]int64, domain)})
		}
		out[a].G += int(c.G[i])
		out[a].Hist[c.Value[i]] += c.G[i]
	}
	return out
}

// Aggregates equals the map-keyed reference on releases of all three
// Phase-2 algorithms, on boxes that repeat out of order, and on an empty
// release.
func TestAggregatesMatchesReference(t *testing.T) {
	d, err := sal.Generate(4000, 61)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	check := func(name string, pub *Published) {
		t.Helper()
		if got, want := pub.Aggregates(), refAggregates(pub); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Aggregates differs from the reference (%d vs %d entries)", name, len(got), len(want))
		}
	}
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		pub, err := Publish(d, hiers, Config{K: 6, P: 0.3, Algorithm: alg, Seed: 62})
		if err != nil {
			t.Fatal(err)
		}
		check(alg.String(), pub)
	}

	s := sal.Schema()
	box := func(lo, hi int32) generalize.Box {
		b := generalize.Box{Lo: make([]int32, s.D()), Hi: make([]int32, s.D())}
		for j := range b.Lo {
			b.Lo[j], b.Hi[j] = lo, hi
		}
		b.Hi[s.D()-1] = hi + lo // boxes that differ in one bound only
		return b
	}
	var rows []Row
	for i := 0; i < 200; i++ {
		b := int32(i*7) % 13
		rows = append(rows, Row{Box: box(b, b+1), Value: int32(i % 3), G: 1 + i%5})
	}
	check("repeated boxes", fromRows(t, s, rows))
	check("empty", fromRows(t, s, nil))
}

// fromRows builds a publication (P 0.3, K 2) from rows written out as Row
// values.
func fromRows(t *testing.T, s *dataset.Schema, rows []Row) *Published {
	t.Helper()
	n, d := len(rows), s.D()
	c := newRowColumns(n, d)
	for i, r := range rows {
		for j := 0; j < d; j++ {
			c.Lo[j*n+i], c.Hi[j*n+i] = r.Box.Lo[j], r.Box.Hi[j]
		}
		c.Value[i], c.G[i], c.SourceRow[i] = r.Value, int64(r.G), int64(r.SourceRow)
	}
	pub, err := FromColumns(Published{Schema: s, P: 0.3, K: 2}, c)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}
