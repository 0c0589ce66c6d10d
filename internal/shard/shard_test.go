package shard

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/snapshot"
)

// publishSharded publishes n SAL rows into s shards under a fixed seed.
func publishSharded(t *testing.T, n, s, workers int, algorithm pg.Algorithm) []*pg.Published {
	t.Helper()
	d, err := sal.Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := pg.PublishSharded(d, sal.Hierarchies(d.Schema), pg.Config{
		K: 6, P: 0.3, Algorithm: algorithm, Seed: 11, Workers: workers,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	return pubs
}

// relClose compares with a relative tolerance floored at an absolute one, so
// answers near zero don't demand impossible precision.
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func clamp(x, lo, hi float64) float64 {
	return math.Min(math.Max(x, lo), hi)
}

func sensitiveFraction(q query.CountQuery, domain int) float64 {
	n := 0
	for _, in := range q.Sensitive {
		if in {
			n++
		}
	}
	return float64(n) / float64(domain)
}

// TestGroupMatchesMergedIndex is the sharding equivalence contract: for
// every Phase-2 algorithm and S in {1,2,4,8}, the composed answers of the S
// shard indexes must match a single index over the merged publication —
// NAIVE and SUM/AVG to float-compose tolerance (the only slack is addition
// order), and the masked COUNT one-sidedly (per-shard inversions clamp at
// zero, so the composition can only exceed the merged answer).
func TestGroupMatchesMergedIndex(t *testing.T) {
	for _, algorithm := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		t.Run(algorithm.String(), func(t *testing.T) {
			for _, s := range []int{1, 2, 4, 8} {
				pubs := publishSharded(t, 3000, s, 0, algorithm)
				g, err := NewGroup(pubs)
				if err != nil {
					t.Fatal(err)
				}
				merged, err := pg.Merge(pubs)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := query.NewIndex(merged)
				if err != nil {
					t.Fatal(err)
				}
				if g.Rows() != merged.Len() || g.Shards() != s {
					t.Fatalf("S=%d: group has %d rows / %d shards, merged has %d rows",
						s, g.Rows(), g.Shards(), merged.Len())
				}

				rng := rand.New(rand.NewSource(5))
				qs, err := query.Workload(g.Schema(), query.WorkloadConfig{
					Queries: 32, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.5, Rng: rng,
				})
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range qs {
					gn, err1 := g.Naive(q)
					mn, err2 := ix.Naive(q)
					if err1 != nil || err2 != nil {
						t.Fatalf("S=%d query %d naive: %v / %v", s, qi, err1, err2)
					}
					if !relClose(gn, mn, 1e-9) {
						t.Fatalf("S=%d query %d: composed naive %v, merged %v", s, qi, gn, mn)
					}
					gc, err1 := g.Count(q)
					mc, err2 := ix.Count(q)
					if err1 != nil || err2 != nil {
						t.Fatalf("S=%d query %d count: %v / %v", s, qi, err1, err2)
					}
					if q.Sensitive == nil {
						if !relClose(gc, mc, 1e-9) {
							t.Fatalf("S=%d query %d: composed count %v, merged %v", s, qi, gc, mc)
						}
					} else {
						// The unclamped masked estimator is exactly additive;
						// the two answers differ only in clamping discipline:
						// per shard to [0, b_s] for the composition, once to
						// [0, Σ b_s] for the merged index. Reconstruct the
						// unclamped per-shard estimates from naive answers and
						// check both against their own discipline.
						sf := sensitiveFraction(q, g.Schema().SensitiveDomain())
						uq := q
						uq.Sensitive = nil
						p := g.P()
						var composed, total float64
						for si, six := range g.Indexes {
							a, err1 := six.Naive(q)
							b, err2 := six.Naive(uq)
							if err1 != nil || err2 != nil {
								t.Fatalf("S=%d query %d shard %d naive: %v / %v", s, qi, si, err1, err2)
							}
							u := (a - (1-p)*sf*b) / p
							composed += clamp(u, 0, b)
							total += u
						}
						bAll, err := ix.Naive(uq)
						if err != nil {
							t.Fatal(err)
						}
						if !relClose(gc, composed, 1e-9) {
							t.Fatalf("S=%d query %d: composed masked count %v, per-shard-clamped reconstruction %v",
								s, qi, gc, composed)
						}
						if !relClose(mc, clamp(total, 0, bAll), 1e-9) {
							t.Fatalf("S=%d query %d: merged masked count %v, once-clamped reconstruction %v",
								s, qi, mc, clamp(total, 0, bAll))
						}
					}
					// SUM/AVG take no sensitive mask; reuse the query's region.
					sq := q
					sq.Sensitive = nil
					gs, gw, err1 := g.AvgParts(sq, query.IncomeMidpoint)
					ms, mw, err2 := ix.AvgParts(sq, query.IncomeMidpoint)
					if err1 != nil || err2 != nil {
						t.Fatalf("S=%d query %d sum: %v / %v", s, qi, err1, err2)
					}
					if !relClose(gs, ms, 1e-6) {
						t.Fatalf("S=%d query %d: composed sum %v, merged %v", s, qi, gs, ms)
					}
					// AVG is sum over weight, undefined on an empty region.
					if (gw == 0) != (mw == 0) {
						t.Fatalf("S=%d query %d avg: composed weight %v, merged weight %v", s, qi, gw, mw)
					}
					if gw != 0 && !relClose(gs/gw, ms/mw, 1e-6) {
						t.Fatalf("S=%d query %d: composed avg %v, merged %v", s, qi, gs/gw, ms/mw)
					}
				}
			}
		})
	}
}

// TestAnswerWorkloadDeterministic pins the composed workload path: answers
// must be byte-identical for every worker count and equal the one-by-one
// composition.
func TestAnswerWorkloadDeterministic(t *testing.T) {
	pubs := publishSharded(t, 2000, 4, 0, pg.KD)
	g, err := NewGroup(pubs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	qs, err := query.Workload(g.Schema(), query.WorkloadConfig{
		Queries: 40, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	var base []float64
	for _, workers := range []int{1, 3, 8} {
		out, err := g.AnswerWorkload(qs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = out
			for i, q := range qs {
				v, err := g.Count(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(v) != math.Float64bits(out[i]) {
					t.Fatalf("query %d: workload %v, direct %v", i, out[i], v)
				}
			}
			continue
		}
		for i := range out {
			if math.Float64bits(base[i]) != math.Float64bits(out[i]) {
				t.Fatalf("query %d differs at %d workers: %v vs %v", i, workers, out[i], base[i])
			}
		}
	}
}

// TestShardBytesStableAcrossWorkers pins the seed-splitting discipline: the
// bytes of every shard snapshot (and hence the manifest CRCs) must not
// depend on the publisher's worker count.
func TestShardBytesStableAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var crcs [][]uint32
	for _, workers := range []int{1, 8} {
		pubs := publishSharded(t, 2000, 4, workers, pg.KD)
		base := filepath.Join(dir, "rel")
		man, err := WriteRelease(filepath.Join(dir, "rel.pgman"), base, pubs, nil, 11, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var c []uint32
		for _, e := range man.Shards {
			c = append(c, e.CRC)
		}
		crcs = append(crcs, c)
	}
	for s := range crcs[0] {
		if crcs[0][s] != crcs[1][s] {
			t.Fatalf("shard %d bytes differ across worker counts: %08x vs %08x", s, crcs[0][s], crcs[1][s])
		}
	}
}

// TestWriteReleaseOpenRoundtrip saves a sharded release and re-opens it: the
// manifest survives, checksums verify, and the opened group answers
// bit-identically to the in-process one.
func TestWriteReleaseOpenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	pubs := publishSharded(t, 2000, 4, 0, pg.TDS)
	inproc, err := NewGroup(pubs)
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "rel.pgman")
	guarantee := &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.1, Rho2: 0.4, Delta: 0.3}
	man, err := WriteRelease(manPath, filepath.Join(dir, "rel.pgsnap"), pubs, guarantee, 11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 4 || man.K != 6 || man.P != 0.3 || man.Algorithm != "tds" || man.SourceRows != 2000 {
		t.Fatalf("manifest: %+v", man)
	}
	g, err := OpenObserved(manPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 4 || g.Rows() != inproc.Rows() || g.Manifest == nil {
		t.Fatalf("opened group: %d shards, %d rows", g.Shards(), g.Rows())
	}
	rng := rand.New(rand.NewSource(3))
	qs, err := query.Workload(g.Schema(), query.WorkloadConfig{
		Queries: 16, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		a, err1 := g.Count(q)
		b, err2 := inproc.Count(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d: %v / %v", i, err1, err2)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: opened %v, in-process %v", i, a, b)
		}
	}
}

// TestOpenObservedGaugesTotalGroup opens a 4-shard release with a registry:
// the query.index.* gauges describe the whole group, not the last shard
// observed, and every shard's answers land in the shared counters.
func TestOpenObservedGaugesTotalGroup(t *testing.T) {
	dir := t.TempDir()
	pubs := publishSharded(t, 2000, 4, 0, pg.KD)
	manPath := filepath.Join(dir, "rel.pgman")
	if _, err := WriteRelease(manPath, filepath.Join(dir, "rel.pgsnap"), pubs, nil, 11, 2000); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g, err := OpenObserved(manPath, reg)
	if err != nil {
		t.Fatal(err)
	}
	for s, ix := range g.Indexes {
		if ix.Groups() == g.Groups() {
			t.Fatalf("shard %d holds all %d groups; the check below could not tell a total from one shard", s, g.Groups())
		}
	}
	if got := reg.Snapshot().Gauges["query.index.entries"]; got != int64(g.Groups()) {
		t.Fatalf("query.index.entries = %d, want the group's %d", got, g.Groups())
	}
	q := query.CountQuery{QI: make([]query.Range, g.Schema().D())}
	for j, a := range g.Schema().QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	if _, err := g.Count(q); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Histograms["query.count.latency"].Count; got != int64(g.Shards()) {
		t.Fatalf("query.count.latency count = %d after one composed COUNT, want one per shard (%d)", got, g.Shards())
	}
}

// TestOpenRejectsTampering flips one byte in a shard snapshot and in the
// manifest: both opens must fail loudly rather than serve corrupt data.
func TestOpenRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	pubs := publishSharded(t, 1500, 2, 0, pg.KD)
	manPath := filepath.Join(dir, "rel.pgman")
	if _, err := WriteRelease(manPath, filepath.Join(dir, "rel.pgsnap"), pubs, nil, 11, 1500); err != nil {
		t.Fatal(err)
	}

	flip := func(path string, off int) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1-off] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	shardPath := SnapshotPath(filepath.Join(dir, "rel.pgsnap"), 1)
	flip(shardPath, 3)
	if _, err := OpenObserved(manPath, nil); err == nil {
		t.Fatal("corrupt shard snapshot accepted")
	}
	flip(shardPath, 3) // restore
	if _, err := OpenObserved(manPath, nil); err != nil {
		t.Fatalf("restored release rejected: %v", err)
	}

	flip(manPath, 3)
	if _, err := OpenObserved(manPath, nil); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestManifestRoundtrip exercises the codec directly, including the
// validation of structurally broken manifests.
func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := &snapshot.Manifest{
		K: 6, P: 0.25, Algorithm: "kd", Seed: 42, SourceRows: 100,
		Shards: []snapshot.ShardEntry{
			{Path: "a.pgsnap", CRC: 0xdeadbeef, Rows: 10, SourceRows: 50},
			{Path: "b.pgsnap", CRC: 1, Rows: 20, SourceRows: 50},
		},
	}
	path := filepath.Join(dir, "m.pgman")
	if err := snapshot.SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != m.K || got.P != m.P || got.Algorithm != m.Algorithm || got.Seed != m.Seed ||
		got.SourceRows != m.SourceRows || len(got.Shards) != 2 ||
		got.Shards[0] != m.Shards[0] || got.Shards[1] != m.Shards[1] {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
	}

	bad := *m
	bad.Shards = []snapshot.ShardEntry{{Path: "a", Rows: 60, SourceRows: 50}}
	if err := snapshot.SaveManifest(filepath.Join(dir, "bad.pgman"), &bad); err == nil {
		t.Fatal("shard publishing more rows than its source accepted")
	}
	bad.Shards = nil
	if err := snapshot.SaveManifest(filepath.Join(dir, "bad.pgman"), &bad); err == nil {
		t.Fatal("zero-shard manifest accepted")
	}
}
