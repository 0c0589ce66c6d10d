package pg

import (
	"fmt"
	"math/rand"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

// randomScenario builds a random microdata table with matching hierarchies:
// 1–4 QI attributes with domain sizes 2–24, a sensitive domain of 2–16, and
// a table large enough for the K that the case will use.
func randomScenario(t *testing.T, rng *rand.Rand, minRows int) (*dataset.Table, []*hierarchy.Hierarchy) {
	t.Helper()
	d := 1 + rng.Intn(4)
	qi := make([]*dataset.Attribute, d)
	hiers := make([]*hierarchy.Hierarchy, d)
	for j := 0; j < d; j++ {
		size := 2 + rng.Intn(23)
		a, err := dataset.NewIntAttribute(fmt.Sprintf("q%d", j), 0, size-1)
		if err != nil {
			t.Fatal(err)
		}
		qi[j] = a
		h, err := hierarchy.NewBalanced(size, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		hiers[j] = h
	}
	sens, err := dataset.NewIntAttribute("s", 0, 1+rng.Intn(15))
	if err != nil {
		t.Fatal(err)
	}
	schema, err := dataset.NewSchema(qi, sens)
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(schema)
	n := minRows + rng.Intn(300)
	for i := 0; i < n; i++ {
		row := make([]int32, schema.Width())
		for j := 0; j < d; j++ {
			row[j] = int32(rng.Intn(qi[j].Size()))
		}
		row[d] = int32(rng.Intn(sens.Size()))
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab, hiers
}

// TestPublishInvariantsRandomized is the pipeline's property-based harness:
// for randomized schemas, table sizes, seeds, and every Phase-2 algorithm,
// the publication must validate (including the G3 disjointness check), every
// group must meet the K floor, the G values must partition |D|, and |D*|
// must respect the Cardinality bound |D*| <= |D|·s with s = 1/k. Each case
// runs with Workers 1 and 8 and the two runs must agree row for row, so the
// parallel pipeline is exercised against the sequential one on every shape
// the generator produces.
func TestPublishInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20080402))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for c := 0; c < cases; c++ {
		k := 1 + rng.Intn(6)
		d, hiers := randomScenario(t, rng, 2*k+1)
		alg := []Algorithm{KD, TDS, FullDomain}[rng.Intn(3)]
		cfg := Config{
			K:         k,
			P:         float64(rng.Intn(101)) / 100,
			Algorithm: alg,
			Seed:      rng.Int63(),
		}
		name := fmt.Sprintf("case %d (%v k=%d p=%.2f n=%d d=%d)", c, alg, k, cfg.P, d.Len(), d.Schema.D())

		var pubs [2]*Published
		for i, workers := range []int{1, 8} {
			cfg.Workers = workers
			pub, err := Publish(d, hiers, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if err := pub.Validate(); err != nil {
				t.Fatalf("%s workers=%d: Validate: %v", name, workers, err)
			}
			sum := 0
			for _, g := range pub.Columns().G {
				if g < int64(k) {
					t.Fatalf("%s workers=%d: G = %d below floor %d", name, workers, g, k)
				}
				sum += int(g)
			}
			if sum != d.Len() {
				t.Fatalf("%s workers=%d: G values sum to %d, want |D| = %d", name, workers, sum, d.Len())
			}
			// Cardinality: |D*| <= |D|·s with s = 1/k.
			if pub.Len()*k > d.Len() {
				t.Fatalf("%s workers=%d: |D*| = %d exceeds |D|/k = %d/%d", name, workers, pub.Len(), d.Len(), k)
			}
			pubs[i] = pub
		}
		seq, par8 := pubs[0], pubs[1]
		if seq.Len() != par8.Len() {
			t.Fatalf("%s: sequential published %d rows, parallel %d", name, seq.Len(), par8.Len())
		}
		for i := 0; i < seq.Len(); i++ {
			a, b := seq.Columns().Row(i), par8.Columns().Row(i)
			if !a.Box.Equal(b.Box) || a.Value != b.Value || a.G != b.G || a.SourceRow != b.SourceRow {
				t.Fatalf("%s: row %d differs between sequential and parallel run", name, i)
			}
		}
	}
}
