package generalize

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
)

// maxExhaustive bounds the lattice size for exhaustive search (which finds
// the global loss optimum). Larger lattices fall back to a greedy
// level-raising heuristic.
const maxExhaustive = 4096

// FullDomainConfig parameterizes the full-domain recoding search in the
// spirit of Incognito [13]: every QI attribute is generalized uniformly to
// one level of its (uniform) hierarchy, and we search the lattice of level
// vectors for the k-anonymous one of least discernibility (Σ|G|², the fixed
// loss: it needs only group sizes, so candidates are scored without
// materializing rows).
type FullDomainConfig struct {
	// K is the minimum QI-group size (Property G2); must be >= 1.
	K int
	// Workers bounds the goroutines of the single sharded table scan at the
	// lattice bottom. 0 means GOMAXPROCS; the result is identical for every
	// value.
	Workers int

	// Metrics optionally receives search diagnostics: lattice nodes scored
	// (generalize.lattice.nodes_evaluated) and rows scanned by the one base
	// grouping (generalize.groupby.rows_scanned). nil disables.
	Metrics *obs.Registry
}

// FullDomainResult is the outcome of SearchFullDomain.
type FullDomainResult struct {
	Recoding  *Recoding
	Groups    *Groups
	Levels    []int
	Loss      float64
	Exhausted bool // true if the whole lattice was searched (optimal loss)
}

// SearchFullDomain finds a k-anonymous full-domain recoding. All
// hierarchies must be uniform. It returns an error when even the fully
// suppressed table has fewer than K rows.
//
// The table is scanned only once, at the lattice bottom (the identity
// recoding); every level vector the search visits is scored by rolling that
// base grouping's (key, size) pairs up through the hierarchies (see
// LatticeEvaluator). Rows are materialized only for the returned vector.
func SearchFullDomain(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg FullDomainConfig) (*FullDomainResult, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("generalize: full-domain search on an empty table")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("generalize: full-domain search needs K >= 1, got %d", cfg.K)
	}
	heights := make([]int, len(hiers))
	latticeSize := 1
	for j, h := range hiers {
		if !h.Uniform() {
			return nil, fmt.Errorf("generalize: hierarchy %d is not uniform; full-domain recoding needs level cuts", j)
		}
		heights[j] = h.Height()
		if latticeSize <= maxExhaustive {
			latticeSize *= h.Height() + 1
		}
	}

	eval, err := NewLatticeEvaluator(t, hiers, cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg.Metrics.Counter("generalize.groupby.rows_scanned").Add(int64(t.Len()))
	s := &fullDomainSearch{
		k: cfg.K, eval: eval, heights: heights,
		scored: cfg.Metrics.Counter("generalize.lattice.nodes_evaluated"),
	}

	// The top of the lattice must be k-anonymous, or nothing is: merging
	// groups only grows them.
	s.scored.Inc()
	topMin, _, err := eval.scoreAt(heights)
	if err != nil {
		return nil, err
	}
	if topMin < s.k {
		return nil, fmt.Errorf("generalize: even full suppression violates %d-anonymity", s.k)
	}

	if latticeSize <= maxExhaustive {
		return s.exhaustive()
	}
	return s.greedy()
}

// fullDomainSearch is the state both lattice walks share: the roll-up
// evaluator, the group-size floor, and the counter of scored nodes.
type fullDomainSearch struct {
	k       int
	eval    *LatticeEvaluator
	heights []int
	scored  *obs.Counter

	// next and scratch are bestRaise's pair buffers: the best candidate so
	// far and the one being scored.
	next, scratch []sizedGroup
}

// result materializes the chosen level vector: its recoding and its groups.
func (s *fullDomainSearch) result(levels []int, loss float64, exhausted bool) (*FullDomainResult, error) {
	rec, err := s.eval.RecodingAt(levels)
	if err != nil {
		return nil, err
	}
	groups, err := s.eval.GroupsAt(levels)
	if err != nil {
		return nil, err
	}
	return &FullDomainResult{
		Recoding: rec, Groups: groups,
		Levels: append([]int(nil), levels...),
		Loss:   loss, Exhausted: exhausted,
	}, nil
}

// exhaustive enumerates every level vector and keeps the k-anonymous one
// with minimum loss (the first one on ties).
func (s *fullDomainSearch) exhaustive() (*FullDomainResult, error) {
	levels := make([]int, len(s.heights))
	var bestLevels []int
	var bestLoss float64
	for {
		s.scored.Inc()
		minSize, loss, err := s.eval.scoreAt(levels)
		if err != nil {
			return nil, err
		}
		if minSize >= s.k && (bestLevels == nil || loss < bestLoss) {
			bestLevels = append(bestLevels[:0], levels...)
			bestLoss = loss
		}
		// Advance the mixed-radix counter.
		j := 0
		for ; j < len(levels); j++ {
			levels[j]++
			if levels[j] <= s.heights[j] {
				break
			}
			levels[j] = 0
		}
		if j == len(levels) {
			break
		}
	}
	if bestLevels == nil {
		return nil, fmt.Errorf("generalize: no level vector satisfies %d-anonymity", s.k)
	}
	return s.result(bestLevels, bestLoss, true)
}

// greedy raises one attribute level at a time, choosing the raise with the
// largest minimum group size and, among ties, the least loss.
func (s *fullDomainSearch) greedy() (*FullDomainResult, error) {
	levels := make([]int, len(s.heights))
	s.scored.Inc()
	cur := s.eval.sizesAt(levels, nil)
	for {
		minSize, loss := sizeScore(cur)
		j := -1
		if minSize < s.k {
			j = s.bestRaise(levels, cur)
		}
		if j < 0 {
			// k-anonymous, or every attribute at its top (known to be).
			return s.result(levels, loss, false)
		}
		levels[j]++
		cur, s.next = s.next, cur
	}
}

// bestRaise scores every one-level raise of the node at levels, whose pairs
// are cur, from group sizes alone. It returns the winning attribute — the
// largest minimum group size, then the least loss, then the lowest index —
// and leaves its pairs in s.next; -1 means every attribute is at its top.
// Once the buffers have grown to the base group count it allocates nothing.
func (s *fullDomainSearch) bestRaise(levels []int, cur []sizedGroup) int {
	bestJ, bestMin, bestLoss := -1, -1, 0.0
	for j := range levels {
		if levels[j] >= s.heights[j] {
			continue
		}
		s.scored.Inc()
		s.scratch = s.eval.raise(cur, j, s.scratch[:0])
		minSize, loss := sizeScore(s.scratch)
		if minSize > bestMin || (minSize == bestMin && loss < bestLoss) {
			bestJ, bestMin, bestLoss = j, minSize, loss
			s.next, s.scratch = s.scratch, s.next
		}
	}
	return bestJ
}
