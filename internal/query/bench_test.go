package query

import (
	"math/rand"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// benchServing publishes a SAL table once per benchmark binary and derives a
// mixed workload (QI-only restriction, sensitive band) like cmd/pgquery's.
func benchServing(b *testing.B, n, queries int) (*pg.Published, []CountQuery) {
	b.Helper()
	d, err := sal.Generate(n, 61)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 62})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := Workload(d.Schema, WorkloadConfig{
		Queries: queries, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4,
		Rng: rand.New(rand.NewSource(63)),
	})
	if err != nil {
		b.Fatal(err)
	}
	return pub, qs
}

// BenchmarkCountScan is the reference per-query scan path.
func BenchmarkCountScan(b *testing.B) {
	pub, qs := benchServing(b, 20000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := Estimate(pub, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIndexBuild is the one-time serving-index construction, over the
// publication of each Phase-2 algorithm at 20k rows, plus kd-200k: the kd
// release at the size the publish benchmark workload saves, where ranking
// the entries and building the tree are a larger share of the build.
func BenchmarkIndexBuild(b *testing.B) {
	d, err := sal.Generate(20000, 61)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, d *dataset.Table, alg pg.Algorithm) {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Algorithm: alg, Seed: 62})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewIndex(pub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		run(alg.String(), d, alg)
	}
	big, err := sal.Generate(200000, 61)
	if err != nil {
		b.Fatal(err)
	}
	run("kd-200k", big, pg.KD)
}

// BenchmarkIndexCount is the indexed per-query path, sequential, over 100
// queries a call. grid draws benchServing's 2-attribute queries, which the
// interval grid answers. kd-count and kd-avgparts take the kd traversal at
// the shape of the serve-cold benchmark workload: a 100k-row kd release and
// fresh queries restricting 3 or 4 attributes to 0.7 of their domain,
// answered by Count and by AvgParts (the SUM/AVG compose form).
func BenchmarkIndexCount(b *testing.B) {
	pub, qs := benchServing(b, 20000, 100)
	ix, err := NewIndex(pub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Count(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	d, err := sal.Generate(100000, 64)
	if err != nil {
		b.Fatal(err)
	}
	pub, err = pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 65})
	if err != nil {
		b.Fatal(err)
	}
	if ix, err = NewIndex(pub); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	qs = qs[:0]
	for len(qs) < 100 {
		w, err := Workload(d.Schema, WorkloadConfig{Queries: 1, QIFraction: 0.7, RestrictAttrs: 3 + rng.Intn(2), Rng: rng})
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, w[0])
	}
	value := func(y int32) float64 { return float64(y) }
	b.Run("kd-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Count(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("kd-avgparts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, _, err := ix.AvgParts(q, value); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAnswerWorkload is the batched parallel serving path.
func BenchmarkAnswerWorkload(b *testing.B) {
	pub, qs := benchServing(b, 20000, 100)
	ix, err := NewIndex(pub)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.AnswerWorkload(qs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
