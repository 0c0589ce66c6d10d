package pg

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
)

// This file is the shard-aware publication entry point: partition the
// microdata into S deterministic shards and run the full three-phase
// pipeline on each, so every shard is an independent PG release with its own
// partition, its own sampling, and its own Theorem 1–3 guarantee (the
// parameters — k, p, sensitive domain — are shared, so the certified bounds
// are identical across shards). A fan-out coordinator (internal/serve) can
// then answer aggregate queries over the union by composing per-shard
// answers; internal/shard owns that composition.

// shardSeedLane is the par.SplitSeed lane the per-shard publication roots
// are split from. Lanes 0 and 1 of a root seed belong to Publish's Phase 1
// and Phase 3 streams, lane 2 to the attack fleet's randomness; sharded
// publication takes lane 3. The derivation depends only on (Seed, shard
// index) — not on the shard count or the worker count — so shard s's
// published bytes are a pure function of the rows assigned to it and the
// root seed.
const shardSeedLane = 3

// ShardOf is the public row-to-shard assignment: row i of the microdata
// lands in shard i mod shards. Round-robin keeps shard sizes within one row
// of each other and — being a function of the row index alone — is exactly
// as public as the voter list itself, which is what lets the transparent-
// anonymization adversary model (and the attack fleet) apply per-shard.
func ShardOf(i, shards int) int { return i % shards }

// ShardSeed derives shard s's publication seed from the root seed.
func ShardSeed(root int64, s int) int64 {
	return par.SplitSeed(par.SplitSeed(root, shardSeedLane), s)
}

// PublishSharded partitions d into shards round-robin slices (ShardOf) and
// publishes each independently with a seed split off cfg.Seed. Owner IDs
// are preserved through the partition, so shard publications still name
// the same individuals. Output bytes are identical at every GOMAXPROCS
// value, shard by shard.
func PublishSharded(d *dataset.Table, hiers []*hierarchy.Hierarchy, cfg Config, shards int) ([]*Published, error) {
	if shards < 1 {
		return nil, fmt.Errorf("pg: shard count %d < 1", shards)
	}
	if d.Len() < shards {
		return nil, fmt.Errorf("pg: %d shards over %d rows leaves empty shards", shards, d.Len())
	}
	pubs := make([]*Published, shards)
	for s := 0; s < shards; s++ {
		rows := make([]int, 0, (d.Len()+shards-1)/shards)
		for i := s; i < d.Len(); i += shards {
			rows = append(rows, i)
		}
		scfg := cfg
		scfg.Seed = ShardSeed(cfg.Seed, s)
		pub, err := Publish(d.Subset(rows), hiers, scfg)
		if err != nil {
			return nil, fmt.Errorf("pg: shard %d: %w", s, err)
		}
		pubs[s] = pub
	}
	return pubs, nil
}

// Merge concatenates shard publications' rows, shard by shard, into one
// publication with the shared metadata, for building a single reference
// query index over the whole sharded release. The result is *not* a
// standalone PG release: boxes from different shards overlap (Property G3
// holds only within a shard), so FindCrucial is ambiguous on it and
// Validate would reject it. Aggregate estimation (query.NewIndex,
// query.Estimate) is well-defined — COUNT, NAIVE and SUM are additive over
// rows regardless of disjointness.
func Merge(pubs []*Published) (*Published, error) {
	if len(pubs) == 0 {
		return nil, fmt.Errorf("pg: merging zero publications")
	}
	first := pubs[0]
	total := 0
	for i, p := range pubs {
		if p.Schema != first.Schema {
			return nil, fmt.Errorf("pg: shard %d has a different schema", i)
		}
		if p.P != first.P || p.K != first.K || p.Algorithm != first.Algorithm {
			return nil, fmt.Errorf(
				"pg: shard %d params (%v, p=%v, k=%d) differ from shard 0's (%v, p=%v, k=%d)",
				i, p.Algorithm, p.P, p.K, first.Algorithm, first.P, first.K)
		}
		total += p.Len()
	}
	d := first.Schema.D()
	out := newRowColumns(total, d)
	at := 0
	for _, p := range pubs {
		c := p.cols
		for j := 0; j < d; j++ {
			copy(out.Lo[j*total+at:], c.Lo[j*c.N:(j+1)*c.N])
			copy(out.Hi[j*total+at:], c.Hi[j*c.N:(j+1)*c.N])
		}
		copy(out.Value[at:], c.Value)
		copy(out.G[at:], c.G)
		copy(out.SourceRow[at:], c.SourceRow)
		at += c.N
	}
	return FromColumns(Published{
		Schema: first.Schema, Algorithm: first.Algorithm, P: first.P, K: first.K,
	}, out)
}
