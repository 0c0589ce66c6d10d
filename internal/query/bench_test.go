package query

import (
	"math/rand"
	"testing"

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
// publication of each Phase-2 algorithm.
func BenchmarkIndexBuild(b *testing.B) {
	d, err := sal.Generate(20000, 61)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Algorithm: alg, Seed: 62})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewIndex(pub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexCount is the indexed per-query path, sequential.
func BenchmarkIndexCount(b *testing.B) {
	pub, qs := benchServing(b, 20000, 100)
	ix, err := NewIndex(pub)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := ix.Count(q); err != nil {
				b.Fatal(err)
			}
		}
	}
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
