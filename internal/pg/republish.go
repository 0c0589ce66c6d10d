package pg

import (
	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
)

// releaseSeedStream offsets the per-release seed split away from the small
// stream indices other consumers derive from the same root: Publish itself
// splits streams 0 (Phase 1) and 1 (Phase 3) off its root, and the attack
// fleet splits stream 2 off the experiment seed.
const releaseSeedStream = 0x52455055 // "REPU"

// ReleaseSeed derives release r's pipeline root seed from the chain's root.
// Release 0 publishes under the root itself, so the base release of a chain
// is byte-identical to a plain Publish with cfg.Seed = root; every later
// release draws a disjoint splitmix64 stream. The schedule is stateless —
// seed r depends only on (root, r), never on the deltas between — which is
// what makes a release's bytes a pure function of (base, delta sequence,
// params).
func ReleaseSeed(root int64, release int) int64 {
	if release == 0 {
		return root
	}
	return par.SplitSeed(root, releaseSeedStream+release)
}

// Chain drives a re-publication series r0, r1, ... over evolving microdata:
// it holds the current table, the hierarchies and the next release number.
// Chains are not safe for concurrent use.
type Chain struct {
	table   *dataset.Table
	hiers   []*hierarchy.Hierarchy
	release int
}

// NewChain starts a re-publication chain at the base microdata. The first
// Republish call publishes release 0 (pass an empty Delta), which equals
// Publish(d, hiers, cfg) byte for byte.
func NewChain(d *dataset.Table, hiers []*hierarchy.Hierarchy) *Chain {
	return &Chain{table: d, hiers: hiers}
}

// Table returns the chain's current (post-delta) microdata. Read-only:
// mutating it invalidates the chain's determinism contract.
func (c *Chain) Table() *dataset.Table { return c.table }

// Republish applies the delta to the chain's microdata and publishes the
// next release under the derived per-release seed schedule. The release's
// bytes are a pure function of (base table, delta sequence, cfg):
// cfg.Seed is the chain root, release r runs the pipeline under
// ReleaseSeed(root, r), and a from-scratch Publish of the post-delta table
// with Seed = ReleaseSeed(root, r) produces the identical result. Every
// release runs all three phases; the Phase-2 algorithms are global (one
// moved median or frequency count can reshape groups arbitrarily far from
// the edited rows), so no part of a release is carried over from the last.
func Republish(c *Chain, delta Delta, cfg Config) (*Published, error) {
	met := cfg.Metrics
	sp := met.Span("repub.publish")
	defer sp.End()

	next, err := ApplyDelta(c.table, delta)
	if err != nil {
		return nil, err
	}
	inserts := 0
	if delta.Inserts != nil {
		inserts = delta.Inserts.Len()
	}
	met.Counter("repub.delta.inserts").Add(int64(inserts))
	met.Counter("repub.delta.deletes").Add(int64(len(delta.Deletes)))

	rcfg := cfg
	rcfg.Seed = ReleaseSeed(cfg.Seed, c.release)
	pub, err := Publish(next, c.hiers, rcfg)
	if err != nil {
		return nil, err
	}

	c.table = next
	c.release++
	met.Counter("repub.releases").Inc()
	met.Counter("repub.rows").Add(int64(pub.Len()))
	return pub, nil
}
