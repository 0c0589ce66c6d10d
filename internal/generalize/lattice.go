package generalize

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
)

// FullDomainConfig parameterizes the full-domain recoding search in the
// spirit of Incognito [13]: every QI attribute is generalized uniformly to
// one level of its (uniform) hierarchy, and we search the lattice of level
// vectors for the satisfying one of least discernibility (Σ|G|², the fixed
// loss: it needs only group sizes, so candidates are scored without
// materializing rows).
type FullDomainConfig struct {
	// Principle is the constraint to satisfy; defaults to KAnonymity{2}.
	// KAnonymity is decided from group sizes; any other principle is checked
	// on materialized groups.
	Principle Principle
	// MaxExhaustive bounds the lattice size for exhaustive search (which
	// finds the global loss optimum). Larger lattices fall back to a greedy
	// level-raising heuristic. Default 4096.
	MaxExhaustive int
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

// SearchFullDomain finds a full-domain recoding satisfying the principle.
// All hierarchies must be uniform. It returns an error when even the fully
// suppressed table violates the principle.
//
// The table is scanned only once, at the lattice bottom (the identity
// recoding); every level vector the search visits is scored by rolling that
// base grouping's (key, size) pairs up through the hierarchies (see
// LatticeEvaluator). Rows are materialized for the returned vector, and per
// visited node only when the principle reads them.
func SearchFullDomain(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg FullDomainConfig) (*FullDomainResult, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("generalize: full-domain search on an empty table")
	}
	if cfg.Principle == nil {
		cfg.Principle = KAnonymity{K: 2}
	}
	if cfg.MaxExhaustive <= 0 {
		cfg.MaxExhaustive = 4096
	}
	heights := make([]int, len(hiers))
	latticeSize := 1
	for j, h := range hiers {
		if !h.Uniform() {
			return nil, fmt.Errorf("generalize: hierarchy %d is not uniform; full-domain recoding needs level cuts", j)
		}
		heights[j] = h.Height()
		if latticeSize <= cfg.MaxExhaustive {
			latticeSize *= h.Height() + 1
		}
	}

	eval, err := NewLatticeEvaluator(t, hiers, make([]int, len(hiers)), cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg.Metrics.Counter("generalize.groupby.rows_scanned").Add(int64(t.Len()))
	s := &fullDomainSearch{
		t: t, principle: cfg.Principle, eval: eval, heights: heights,
		scored: cfg.Metrics.Counter("generalize.lattice.nodes_evaluated"),
	}
	s.kAnon, s.sizesOnly = cfg.Principle.(KAnonymity)

	// The top of the lattice must satisfy the principle, or nothing does
	// (principles satisfied by merging groups are monotone up the lattice;
	// for non-monotone principles this is still the only cheap certificate).
	s.scored.Inc()
	topMin, _, err := eval.scoreAt(heights)
	if err != nil {
		return nil, err
	}
	ok, _, err := s.satisfied(heights, topMin)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("generalize: even full suppression violates %s", cfg.Principle)
	}

	if latticeSize <= cfg.MaxExhaustive {
		return s.exhaustive()
	}
	return s.greedy()
}

// fullDomainSearch is the state both lattice walks share: the roll-up
// evaluator, the principle, and the counter of scored nodes.
type fullDomainSearch struct {
	t         *dataset.Table
	principle Principle
	kAnon     KAnonymity
	sizesOnly bool // the principle is k-anonymity, decided by the minimum size
	eval      *LatticeEvaluator
	heights   []int
	scored    *obs.Counter

	// next and scratch are bestRaise's pair buffers: the best candidate so
	// far and the one being scored.
	next, scratch []sizedGroup
}

// satisfied checks the principle at a scored node whose smallest group has
// minSize rows. Only a principle that reads rows materializes the node; its
// groups are returned so a winning node need not be grouped again.
func (s *fullDomainSearch) satisfied(levels []int, minSize int) (bool, *Groups, error) {
	if s.sizesOnly {
		return minSize >= s.kAnon.K, nil, nil
	}
	g, err := s.eval.GroupsAt(levels)
	if err != nil {
		return false, nil, err
	}
	return s.principle.Satisfied(s.t, g), g, nil
}

// result materializes the chosen level vector: its recoding, and its groups
// unless the principle check already grouped it.
func (s *fullDomainSearch) result(levels []int, groups *Groups, loss float64, exhausted bool) (*FullDomainResult, error) {
	rec, err := s.eval.RecodingAt(levels)
	if err != nil {
		return nil, err
	}
	if groups == nil {
		if groups, err = s.eval.GroupsAt(levels); err != nil {
			return nil, err
		}
	}
	return &FullDomainResult{
		Recoding: rec, Groups: groups,
		Levels: append([]int(nil), levels...),
		Loss:   loss, Exhausted: exhausted,
	}, nil
}

// exhaustive enumerates every level vector and keeps the satisfying one with
// minimum loss (the first one on ties). A node's loss is scored first, so
// the principle is checked only on nodes that would win.
func (s *fullDomainSearch) exhaustive() (*FullDomainResult, error) {
	levels := make([]int, len(s.heights))
	var bestLevels []int
	var bestGroups *Groups
	var bestLoss float64
	for {
		s.scored.Inc()
		minSize, loss, err := s.eval.scoreAt(levels)
		if err != nil {
			return nil, err
		}
		if bestLevels == nil || loss < bestLoss {
			ok, g, err := s.satisfied(levels, minSize)
			if err != nil {
				return nil, err
			}
			if ok {
				bestLevels = append(bestLevels[:0], levels...)
				bestGroups, bestLoss = g, loss
			}
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
		return nil, fmt.Errorf("generalize: no level vector satisfies %s", s.principle)
	}
	return s.result(bestLevels, bestGroups, bestLoss, true)
}

// greedy raises one attribute level at a time, choosing the raise that
// maximizes the principle's progress (approximated by minimum group size)
// and, among ties, minimizes loss.
func (s *fullDomainSearch) greedy() (*FullDomainResult, error) {
	levels := make([]int, len(s.heights))
	s.scored.Inc()
	cur := s.eval.sizesAt(levels, nil)
	for {
		minSize, loss := sizeScore(cur)
		ok, groups, err := s.satisfied(levels, minSize)
		if err != nil {
			return nil, err
		}
		j := -1
		if !ok {
			j = s.bestRaise(levels, cur)
		}
		if j < 0 {
			// Satisfied, or every attribute at its top (known to satisfy).
			return s.result(levels, groups, loss, false)
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
