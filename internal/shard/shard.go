// Package shard composes a sharded PG release back into one queryable
// surface. A sharded release is S independent publications of round-robin
// slices of the microdata (pg.PublishSharded), each saved to its own v2
// snapshot and described by one checksummed manifest
// (snapshot.Manifest). This package owns the two consumers of that layout:
//
//   - Group: an in-process composition of the S per-shard query indexes that
//     offers the same answering methods as a single *query.Index, merging
//     answers in shard order so composed results are deterministic
//     bit-for-bit. The coordinator's over-HTTP merge (internal/serve)
//     mirrors exactly this arithmetic.
//   - The release writer/opener: WriteRelease saves per-shard snapshots and
//     the manifest; OpenObserved loads a manifest, re-checksums every shard
//     file, cross-checks each shard's parameters against the manifest, and
//     returns a ready Group.
//
// Merge semantics: COUNT, NAIVE and SUM are additive over disjoint row
// sets, so the composed answer is the plain left-to-right sum of per-shard
// answers. AVG is not additive; it composes from the per-shard (inverted
// sum, weight) pairs of query.Index.AvgParts as Σ sums / Σ weights. The
// per-shard COUNT estimator clamps its inversion to [0, b_s] shard by
// shard while a single index clamps the total once, so a composed masked
// COUNT can land above the single-index answer (some shard clamped at 0)
// or below it (some shard clamped at its b_s) — that is a property of the
// estimator, not a bug in the merge (the unclamped estimator is exactly
// additive, and the two answers agree whenever no shard clamps).
package shard

import (
	"fmt"
	"path/filepath"
	"strings"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// Group is the composed view of a sharded release: one query index per
// shard, in shard order. Its answering methods mirror *query.Index's, so
// a consumer (pgquery -manifest, a test) stands on a sharded release
// exactly as it stands on a single index.
type Group struct {
	// Indexes holds the per-shard serving indexes in shard order — the merge
	// order for every composed answer.
	Indexes []*query.Index
	// Manifest is the release descriptor the group was opened from; nil for
	// in-process groups built with NewGroup.
	Manifest *snapshot.Manifest

	rows int
}

// NewGroup builds an in-process group over shard publications (the output
// of pg.PublishSharded), constructing one index per shard.
func NewGroup(pubs []*pg.Published) (*Group, error) {
	if len(pubs) == 0 {
		return nil, fmt.Errorf("shard: group over zero shards")
	}
	g := &Group{Indexes: make([]*query.Index, len(pubs))}
	for s, p := range pubs {
		if p.Schema != pubs[0].Schema {
			return nil, fmt.Errorf("shard: shard %d has a different schema", s)
		}
		if p.P != pubs[0].P || p.K != pubs[0].K || p.Algorithm != pubs[0].Algorithm {
			return nil, fmt.Errorf("shard: shard %d params (%v, p=%v, k=%d) differ from shard 0's",
				s, p.Algorithm, p.P, p.K)
		}
		ix, err := query.NewIndex(p)
		if err != nil {
			return nil, fmt.Errorf("shard: indexing shard %d: %w", s, err)
		}
		g.Indexes[s] = ix
		g.rows += p.Len()
	}
	return g, nil
}

// Shards reports the shard count.
func (g *Group) Shards() int { return len(g.Indexes) }

// Schema returns the shared schema.
func (g *Group) Schema() *dataset.Schema { return g.Indexes[0].Schema() }

// P returns the shared retention probability.
func (g *Group) P() float64 { return g.Indexes[0].P() }

// Groups reports the total k-anonymous group count across shards.
func (g *Group) Groups() int {
	n := 0
	for _, ix := range g.Indexes {
		n += ix.Groups()
	}
	return n
}

// Rows reports the total published row count across shards.
func (g *Group) Rows() int { return g.rows }

// Count composes the PG COUNT estimator over the shards: the sum of the
// per-shard estimates in shard order. Each shard clamps its own inversion
// to [0, b_s] exactly as it does when served alone, so the composed answer
// is what a client of S shard servers obtains.
func (g *Group) Count(q query.CountQuery) (float64, error) {
	total := 0.0
	for s, ix := range g.Indexes {
		v, err := ix.Count(q)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
		total += v
	}
	return total, nil
}

// Naive composes the uncorrected estimator: additive over shards.
func (g *Group) Naive(q query.CountQuery) (float64, error) {
	total := 0.0
	for s, ix := range g.Indexes {
		v, err := ix.Naive(q)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
		total += v
	}
	return total, nil
}

// AvgParts composes the (inverted sum, weight) pairs in shard order:
// Σ sums and Σ weights. This is the pair the coordinator extracts from
// shard responses, so Group and coordinator agree bit-for-bit.
func (g *Group) AvgParts(q query.CountQuery, value query.SensitiveValue) (sum, weight float64, err error) {
	for s, ix := range g.Indexes {
		a, b, err := ix.AvgParts(q, value)
		if err != nil {
			return 0, 0, fmt.Errorf("shard %d: %w", s, err)
		}
		sum += a
		weight += b
	}
	return sum, weight, nil
}

// AnswerWorkload answers a COUNT workload against the composed release,
// fanning queries across at most GOMAXPROCS goroutines. Each query is
// composed wholly by one goroutine in shard order, and answers land at
// their query's position, so the output is byte-identical at every
// GOMAXPROCS.
func (g *Group) AnswerWorkload(qs []query.CountQuery) ([]float64, error) {
	out := make([]float64, len(qs))
	err := par.ForEachErr(0, len(qs), func(i int) error {
		v, err := g.Count(qs[i])
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SnapshotPath names shard s's snapshot file under a release base path:
// "release.pgsnap" (or "release") becomes "release-00.pgsnap",
// "release-01.pgsnap", ... Two digits keep lexical order equal to shard
// order for up to 100 shards; beyond that the width grows and the
// lexical-order nicety is forfeit.
func SnapshotPath(base string, s int) string {
	base = strings.TrimSuffix(base, ".pgsnap")
	return fmt.Sprintf("%s-%02d.pgsnap", base, s)
}

// WriteRelease saves a sharded release: one v2 snapshot per shard at
// SnapshotPath(snapshotBase, s), then the manifest at manifestPath
// recording each file's CRC-32C, row counts and the shared parameters.
// sourceRows is the microdata cardinality the shards were partitioned
// from; per-shard source counts follow from the round-robin assignment.
// The guarantee block g (may be nil) is stamped into every shard snapshot —
// the bounds are functions of the shared (p, k, domain), so one certificate
// covers all shards.
func WriteRelease(manifestPath, snapshotBase string, pubs []*pg.Published, g *pg.GuaranteeMetadata, seed int64, sourceRows int) (*snapshot.Manifest, error) {
	if len(pubs) == 0 {
		return nil, fmt.Errorf("shard: writing a release with zero shards")
	}
	m := &snapshot.Manifest{
		K:          pubs[0].K,
		P:          pubs[0].P,
		Algorithm:  pubs[0].Algorithm.String(),
		Seed:       seed,
		SourceRows: sourceRows,
		Shards:     make([]snapshot.ShardEntry, len(pubs)),
	}
	manDir := filepath.Dir(manifestPath)
	for s, p := range pubs {
		path := SnapshotPath(snapshotBase, s)
		if err := snapshot.Save(path, p, g); err != nil {
			return nil, fmt.Errorf("shard: saving shard %d: %w", s, err)
		}
		crc, err := snapshot.FileCRC(path)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", s, err)
		}
		rel, err := filepath.Rel(manDir, path)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = path // unrelatable or outside the manifest dir: keep as given
		}
		m.Shards[s] = snapshot.ShardEntry{
			Path:       rel,
			CRC:        crc,
			Rows:       p.Len(),
			SourceRows: (sourceRows + len(pubs) - 1 - s) / len(pubs),
		}
	}
	if err := snapshot.SaveManifest(manifestPath, m); err != nil {
		return nil, err
	}
	return m, nil
}

// OpenObserved loads a sharded release for in-process querying: the
// manifest is read and validated, every shard snapshot is re-checksummed
// against its manifest CRC, loaded with the fully-verifying snapshot
// reader, and cross-checked against the manifest's shared parameters and
// per-shard row counts; each shard serves the index its snapshot stores.
// reg receives the index instrumentation, its query.index.* gauges the
// group's totals; nil disables it.
func OpenObserved(manifestPath string, reg *obs.Registry) (*Group, error) {
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	if err := m.VerifyShards(manifestPath); err != nil {
		return nil, err
	}
	g := &Group{Indexes: make([]*query.Index, len(m.Shards)), Manifest: m}
	for s := range m.Shards {
		rel, err := snapshot.Load(m.ShardPath(manifestPath, s))
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", s, err)
		}
		if err := checkShard(m, s, rel.Pub); err != nil {
			return nil, err
		}
		g.Indexes[s] = rel.Index
		g.rows += rel.Pub.Len()
	}
	query.Observe(reg, g.Indexes...)
	return g, nil
}

// checkShard cross-validates a loaded shard publication against the
// manifest that named it.
func checkShard(m *snapshot.Manifest, s int, pub *pg.Published) error {
	if pub.P != m.P || pub.K != m.K || pub.Algorithm.String() != m.Algorithm {
		return fmt.Errorf("shard: shard %d snapshot params (%v, p=%v, k=%d) contradict the manifest (%v, p=%v, k=%d)",
			s, pub.Algorithm, pub.P, pub.K, m.Algorithm, m.P, m.K)
	}
	if pub.Len() != m.Shards[s].Rows {
		return fmt.Errorf("shard: shard %d snapshot has %d rows, manifest records %d",
			s, pub.Len(), m.Shards[s].Rows)
	}
	return nil
}
