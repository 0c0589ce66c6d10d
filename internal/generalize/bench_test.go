package generalize

import (
	"math/rand"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/sal"
)

// The benchmarks in this file pit the grouping engine against test-only
// copies of the code paths it replaced: byte-string map keys for GroupBy and
// a full-table re-scan per TDS round. The legacy copies are kept in test
// files — not in the library — so the comparison can't rot silently while
// the engine evolves; the TDS one is in tds_ref_test.go, where it is also
// the reference TestTDSMatchesReference checks TDS against.

// benchGenTable builds a skewed random table over three QI attributes;
// the exponential skew leaves rare tail values so k-anonymity does real work.
func benchGenTable(n int) (*dataset.Table, []*hierarchy.Hierarchy) {
	s := dataset.MustSchema(
		[]*dataset.Attribute{
			dataset.MustIntAttribute("A", 0, 15),
			dataset.MustIntAttribute("B", 0, 7),
			dataset.MustIntAttribute("C", 0, 7),
		},
		dataset.MustAttribute("S", "s0", "s1", "s2", "s3"),
	)
	tbl := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(20080402))
	draw := func(size int) int32 {
		v := int(rng.ExpFloat64() * float64(size) / 5)
		if v >= size {
			v = size - 1
		}
		return int32(v)
	}
	for i := 0; i < n; i++ {
		tbl.MustAppend([]int32{draw(16), draw(8), draw(8), int32(rng.Intn(4))})
	}
	hiers := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(16, 2, 4, 8),
		hierarchy.MustInterval(8, 2, 4),
		hierarchy.MustBalanced(8, 2),
	}
	return tbl, hiers
}

func benchMidRecoding(b *testing.B, tbl *dataset.Table, hiers []*hierarchy.Hierarchy) *Recoding {
	cuts := make([]*hierarchy.Cut, len(hiers))
	for j, h := range hiers {
		c, err := hierarchy.LevelCut(h, (h.Height()+1)/2)
		if err != nil {
			b.Fatal(err)
		}
		cuts[j] = c
	}
	rec, err := NewRecoding(tbl.Schema, hiers, cuts)
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

func BenchmarkGroupByEngine(b *testing.B) {
	tbl, hiers := benchGenTable(100_000)
	rec := benchMidRecoding(b, tbl, hiers)
	for _, bc := range []struct {
		name string
		run  func() *Groups
	}{
		{"legacy-bytes", func() *Groups { return groupByBytes(tbl, rec) }},
		{"packed", func() *Groups { return GroupByWorkers(tbl, rec, 1) }},
		{"packed-8workers", func() *Groups { return GroupByWorkers(tbl, rec, 8) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := bc.run(); g.Len() == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

func BenchmarkTDSEngine(b *testing.B) {
	tbl, hiers := benchGenTable(100_000)
	class := make([]int, tbl.Len())
	for i := range class {
		class[i] = int(tbl.Sensitive(i))
	}
	for _, bc := range []struct {
		name string
		run  func() (*Groups, error)
	}{
		{"legacy-rescan", func() (*Groups, error) {
			g, _, err := legacyTDS(tbl, hiers, class, tbl.Schema.SensitiveDomain(), 6)
			return g, err
		}},
		{"engine", func() (*Groups, error) {
			res, err := TDS(tbl, hiers, TDSConfig{K: 6})
			if err != nil {
				return nil, err
			}
			return res.Groups, nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatticeMinSize measures the exhaustive full-domain search's
// per-node work: the minimum group size and discernibility at every level
// vector of the full lattice, by the evaluator's roll-up (scoreAt).
func BenchmarkLatticeMinSize(b *testing.B) {
	tbl, hiers := benchGenTable(100_000)
	walk := func(visit func(levels []int) error) error {
		levels := make([]int, len(hiers))
		for {
			if err := visit(levels); err != nil {
				return err
			}
			j := 0
			for ; j < len(levels); j++ {
				levels[j]++
				if levels[j] <= hiers[j].Height() {
					break
				}
				levels[j] = 0
			}
			if j == len(levels) {
				return nil
			}
		}
	}
	b.Run("rollup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval, err := NewLatticeEvaluator(tbl, hiers, 1)
			if err != nil {
				b.Fatal(err)
			}
			err = walk(func(levels []int) error {
				_, _, err := eval.scoreAt(levels)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchFullDomainGreedy measures the full-domain search as PG's
// Phase 2 runs it: k-anonymity with k=6 on 20k SAL rows, whose 8-attribute
// lattice is far past maxExhaustive, so the greedy level-raising walk runs.
// workers=1 scores every raise on one goroutine; workers=max spreads each
// round's raises over GOMAXPROCS raisers, as Publish does by default.
func BenchmarkSearchFullDomainGreedy(b *testing.B) {
	tbl, err := sal.Generate(20_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	hiers := sal.Hierarchies(tbl.Schema)
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(w.name, func(b *testing.B) {
			cfg := FullDomainConfig{K: 6, Workers: w.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SearchFullDomain(tbl, hiers, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Exhausted {
					b.Fatal("SAL lattice searched exhaustively; want the greedy walk")
				}
			}
		})
	}
}
