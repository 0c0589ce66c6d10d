package snapshot

import (
	"path/filepath"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// benchRelease publishes the 20k-row SAL kd release the snapshot
// benchmarks write and map.
func benchRelease(b *testing.B) *pg.Published {
	b.Helper()
	d, err := sal.Generate(20_000, 81)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Algorithm: pg.KD, Seed: 82})
	if err != nil {
		b.Fatal(err)
	}
	return pub
}

// BenchmarkSave is the snapshot write a publisher pays per release: the
// serving-index build, the block CRCs and the file itself.
func BenchmarkSave(b *testing.B) {
	pub := benchRelease(b)
	path := filepath.Join(b.TempDir(), "kd.pgsnap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(path, pub, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenMapped is a server's cold start: map the file, decode the
// metadata and wrap the index around the mapped blocks.
func BenchmarkOpenMapped(b *testing.B) {
	pub := benchRelease(b)
	path := filepath.Join(b.TempDir(), "kd.pgsnap")
	if err := Save(path, pub, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
