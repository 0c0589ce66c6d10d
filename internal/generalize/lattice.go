package generalize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/par"
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
// The base scan is sharded, and each greedy round's raises scored, over
// GOMAXPROCS goroutines; the result is identical at every value.
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

	workers := par.N(0)
	eval, err := NewLatticeEvaluator(t, hiers, workers)
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
	s.startRaisers(workers)
	defer s.stopRaisers()
	return s.greedy()
}

// fullDomainSearch is the state both lattice walks share: the roll-up
// evaluator, the group-size floor, and the counter of scored nodes.
type fullDomainSearch struct {
	k       int
	eval    *LatticeEvaluator
	heights []int
	scored  *obs.Counter

	// next holds the pairs of bestRaise's winning raise.
	next []sizedGroup
	// raisers score a greedy round's one-level raises: raisers[0] on the
	// caller's goroutine, each other one on a helper goroutine woken once
	// per round. They take the round's attributes from nextAttr, so each
	// raise is scored once, by whichever raiser is free. round counts the
	// helpers still scoring a round, or, in stopRaisers, still running.
	raisers  []*raiser
	round    sync.WaitGroup
	nextAttr atomic.Int32
	// levels and cur are the node the round raises, set before the helpers
	// are woken.
	levels []int
	cur    []sizedGroup
}

// raiser is one goroutine's share of a greedy round: its own merge table
// and pair buffers, and the best raise it has scored in the round.
type raiser struct {
	idx           *keyTable
	best, scratch []sizedGroup
	j, min        int
	loss          float64
	wake          chan struct{} // nil for raisers[0]
}

// startRaisers sets up bestRaise's raisers, one per worker up to one per
// attribute, and starts the helpers. raisers[0] merges through the
// evaluator's own table. Every pair buffer is allocated at the base group
// count, which no lattice node exceeds, so no scoring pass grows one.
func (s *fullDomainSearch) startRaisers(workers int) {
	n := len(s.eval.base.Keys)
	s.next = make([]sizedGroup, 0, n)
	workers = max(1, min(workers, len(s.heights)))
	s.raisers = make([]*raiser, workers)
	for w := range s.raisers {
		r := &raiser{idx: &s.eval.idx, best: make([]sizedGroup, 0, n), scratch: make([]sizedGroup, 0, n)}
		if w > 0 {
			t := newKeyTable(n)
			r.idx, r.wake = &t, make(chan struct{})
			go func() {
				for range r.wake {
					s.scoreRaises(r)
					s.round.Done()
				}
				s.round.Done()
			}()
		}
		s.raisers[w] = r
	}
}

// stopRaisers ends the helper goroutines and returns once they have
// exited.
func (s *fullDomainSearch) stopRaisers() {
	s.round.Add(len(s.raisers) - 1)
	for _, r := range s.raisers[1:] {
		close(r.wake)
	}
	s.round.Wait()
	s.raisers = nil
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
// are cur, from group sizes alone, spread over the raisers. It returns the
// winning attribute — the largest minimum group size, then the least loss,
// then the lowest index, so the winner does not depend on which raiser
// scored what — and leaves its pairs in s.next; -1 means every attribute is
// at its top. It allocates nothing.
func (s *fullDomainSearch) bestRaise(levels []int, cur []sizedGroup) int {
	s.levels, s.cur = levels, cur
	s.nextAttr.Store(0)
	s.round.Add(len(s.raisers) - 1)
	for _, r := range s.raisers[1:] {
		r.wake <- struct{}{}
	}
	s.scoreRaises(s.raisers[0])
	s.round.Wait()
	win := s.raisers[0]
	for _, r := range s.raisers[1:] {
		if r.beats(win) {
			win = r
		}
	}
	if win.j >= 0 {
		s.next, win.best = win.best, s.next[:0]
	}
	return win.j
}

// beats reports whether r's best raise of the round ranks above o's.
func (r *raiser) beats(o *raiser) bool {
	switch {
	case r.j < 0 || o.j < 0:
		return o.j < 0 && r.j >= 0
	case r.min != o.min:
		return r.min > o.min
	case r.loss != o.loss:
		return r.loss < o.loss
	}
	return r.j < o.j
}

// scoreRaises scores the round's raises r takes and keeps the best in
// r.best. A raiser takes attributes in ascending order, so keeping the
// first of equal scores keeps the lowest index.
func (s *fullDomainSearch) scoreRaises(r *raiser) {
	r.j, r.min, r.loss = -1, -1, 0
	for {
		j := int(s.nextAttr.Add(1)) - 1
		if j >= len(s.levels) {
			return
		}
		if s.levels[j] >= s.heights[j] {
			continue
		}
		s.scored.Inc()
		r.scratch = s.eval.raise(r.idx, s.cur, j, r.scratch[:0])
		minSize, loss := sizeScore(r.scratch)
		if minSize > r.min || (minSize == r.min && loss < r.loss) {
			r.j, r.min, r.loss = j, minSize, loss
			r.best, r.scratch = r.scratch, r.best
		}
	}
}
