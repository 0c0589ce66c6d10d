package query

import (
	"math/rand"
	"testing"
)

// TestIndexPartsEquivalence pins that an index reassembled from its Parts()
// — the arrays a snapshot stores — answers every estimator bit-identically
// to the index it came from, not merely within tolerance, because both walk
// the same tree in the same order. Covers all three Phase-2 algorithms.
func TestIndexPartsEquivalence(t *testing.T) {
	d, pubs := indexPubs(t, 2500, 31)
	for name, pub := range pubs {
		ix, err := NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		ixParts, err := NewIndexFromParts(pub.Schema, ix.Parts())
		if err != nil {
			t.Fatal(err)
		}
		if ix.Groups() != ixParts.Groups() {
			t.Fatalf("%s: group counts diverge: built %d, parts %d", name, ix.Groups(), ixParts.Groups())
		}

		rng := rand.New(rand.NewSource(32))
		qs, err := Workload(d.Schema, WorkloadConfig{
			Queries: 60, QIFraction: 0.4, RestrictAttrs: 3, SensitiveFraction: 0.3, Rng: rng,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			type est struct {
				label string
				f     func(*Index) (float64, error)
			}
			ests := []est{
				{"Count", func(ix *Index) (float64, error) { return ix.Count(q) }},
				{"Naive", func(ix *Index) (float64, error) { return ix.Naive(q) }},
			}
			if q.Sensitive == nil {
				ests = append(ests,
					est{"AvgParts.sum", func(ix *Index) (float64, error) {
						sum, _, err := ix.AvgParts(q, IncomeMidpoint)
						return sum, err
					}},
					est{"AvgParts.weight", func(ix *Index) (float64, error) {
						_, weight, err := ix.AvgParts(q, IncomeMidpoint)
						return weight, err
					}})
			}
			for _, e := range ests {
				built, errBuilt := e.f(ix)
				parts, errParts := e.f(ixParts)
				if (errBuilt == nil) != (errParts == nil) {
					t.Fatalf("%s q%d %s: errors diverge: built %v, parts %v", name, qi, e.label, errBuilt, errParts)
				}
				if errBuilt != nil {
					continue
				}
				if built != parts {
					t.Fatalf("%s q%d %s: built %v, parts %v (must be bit-identical)", name, qi, e.label, built, parts)
				}
			}
		}
	}
}
