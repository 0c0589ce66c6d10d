// Package sampling implements Phase 3 of perturbed generalization:
// stratified sampling over QI-groups (steps S1–S4 of the paper, after
// Chaudhuri et al. [8]).
package sampling

import (
	"fmt"
	"math/rand"

	"pgpub/internal/par"
)

// Stratum is one sampled QI-group: the row chosen at step S2 and the group
// size stored in the published attribute G (step S3).
type Stratum struct {
	// Row is the index (into the grouped table) of the sampled tuple.
	Row int
	// GroupSize is t.G: the cardinality of the source QI-group.
	GroupSize int
	// Group identifies the source QI-group (index into the Groups the
	// sample was drawn from).
	Group int
}

// ShardGroups is the fixed shard size of StratifiedSeeded, part of the
// determinism contract (see perturb.ShardRows).
const ShardGroups = 256

// StratifiedSeeded draws one uniformly random tuple from each group (S1–S4).
// The groups are given as row-index lists; the result has exactly one
// Stratum per group, in group order.
//
// Parallelism is deterministic: the groups are cut into fixed shards of
// ShardGroups, shard i samples its groups with a private rand.Rand seeded
// par.SplitSeed(rootSeed, i), and at most workers goroutines execute the
// shards. The draw for each group depends only on rootSeed and the group
// order — not on the worker count — so sequential and parallel runs select
// the same representatives.
func StratifiedSeeded(groups [][]int, rootSeed int64, workers int) ([]Stratum, error) {
	out := make([]Stratum, len(groups))
	shards := (len(groups) + ShardGroups - 1) / ShardGroups
	err := par.ForEachErr(workers, shards, func(s int) error {
		rng := rand.New(rand.NewSource(par.SplitSeed(rootSeed, s)))
		hi := (s + 1) * ShardGroups
		if hi > len(groups) {
			hi = len(groups)
		}
		for gi := s * ShardGroups; gi < hi; gi++ {
			rows := groups[gi]
			if len(rows) == 0 {
				return fmt.Errorf("sampling: group %d is empty", gi)
			}
			out[gi] = Stratum{
				Row:       rows[rng.Intn(len(rows))],
				GroupSize: len(rows),
				Group:     gi,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
