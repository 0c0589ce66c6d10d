package generalize

import (
	"fmt"
	"math"
	"sort"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
)

// IncognitoConfig parameterizes the Incognito lattice search (LeFevre,
// DeWitt, Ramakrishnan, SIGMOD'05 [13]) for full-domain k-anonymity.
type IncognitoConfig struct {
	// K is the group-size floor.
	K int
	// Workers bounds the goroutines of the single sharded table scan at the
	// lattice bottom. 0 means GOMAXPROCS; the result is identical for every
	// value.
	Workers int

	// Metrics optionally receives search diagnostics: lattice nodes scored
	// versus skipped by roll-up pruning (generalize.lattice.nodes_evaluated
	// / nodes_pruned) and rows scanned (generalize.groupby.rows_scanned).
	// nil disables. The same numbers remain available as IncognitoResult
	// fields for callers that want them without a registry.
	Metrics *obs.Registry
}

// IncognitoResult reports the chosen recoding plus search diagnostics.
type IncognitoResult struct {
	Recoding *Recoding
	Groups   *Groups
	Levels   []int
	Loss     float64
	// Minimal lists every minimal satisfying level vector (no satisfying
	// strict specialization exists).
	Minimal [][]int
	// Evaluated counts the lattice nodes that were actually scored — the
	// pruning wins over the full lattice size.
	Evaluated   int
	LatticeSize int
}

// Incognito finds all minimal full-domain recodings satisfying k-anonymity
// and returns the one of least discernibility (the first on ties). Two
// prunings keep evaluations down:
//
//   - the subset property at |S| = 1: joint QI-groups refine every single
//     attribute's marginal grouping, so a level at which one attribute's
//     marginal alone violates k-anonymity can never appear in a satisfying
//     joint vector — such levels raise the lattice's bottom per attribute;
//   - generalization monotonicity (roll-up): once a vector satisfies, every
//     ancestor satisfies and needs no evaluation.
//
// Grouping itself follows LeFevre et al.'s frequency-set roll-up: the table
// is scanned once, at the (pruned) lattice bottom, and every other node's
// groups are derived from that base grouping in O(#groups) by a
// LatticeEvaluator — the marginal pass likewise rolls per-attribute counts
// up the hierarchy instead of re-scanning the column per level.
//
// All hierarchies must be uniform.
func Incognito(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg IncognitoConfig) (*IncognitoResult, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("generalize: Incognito on an empty table")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("generalize: Incognito needs K >= 1, got %d", cfg.K)
	}
	if t.Len() < cfg.K {
		return nil, fmt.Errorf("generalize: table has %d rows, cannot be %d-anonymous", t.Len(), cfg.K)
	}
	d := len(hiers)
	if d != t.Schema.D() {
		return nil, fmt.Errorf("generalize: %d hierarchies for %d QI attributes", d, t.Schema.D())
	}
	heights := make([]int, d)
	for j, h := range hiers {
		if !h.Uniform() {
			return nil, fmt.Errorf("generalize: hierarchy %d is not uniform", j)
		}
		heights[j] = h.Height()
	}

	res := &IncognitoResult{LatticeSize: 1}

	// Subset-property pass (|S| = 1): the minimum marginally feasible level
	// per attribute, via one column scan and per-level count roll-ups.
	minLevel := make([]int, d)
	for j, h := range hiers {
		level, evaluated, ok := marginalFloor(t, h, j, cfg.K)
		res.Evaluated += evaluated
		if !ok {
			return nil, fmt.Errorf("generalize: attribute %d cannot be made %d-anonymous even alone", j, cfg.K)
		}
		minLevel[j] = level
	}
	for j := range hiers {
		res.LatticeSize *= heights[j] - minLevel[j] + 1
	}

	// The one full-table grouping: the pruned lattice's bottom. Every other
	// node rolls up from it.
	eval, err := NewLatticeEvaluator(t, hiers, minLevel, cfg.Workers)
	if err != nil {
		return nil, err
	}

	// Bottom-up BFS over the reduced lattice, by level-sum.
	type nodeKey string
	key := func(levels []int) nodeKey {
		b := make([]byte, d)
		for j, l := range levels {
			b[j] = byte(l)
		}
		return nodeKey(b)
	}
	satisfied := map[nodeKey]bool{}
	var vectors [][]int
	var gen func(j int, cur []int)
	gen = func(j int, cur []int) {
		if j == d {
			vectors = append(vectors, append([]int(nil), cur...))
			return
		}
		for l := minLevel[j]; l <= heights[j]; l++ {
			gen(j+1, append(cur, l))
		}
	}
	gen(0, nil)
	sort.Slice(vectors, func(a, b int) bool {
		sa, sb := 0, 0
		for j := 0; j < d; j++ {
			sa += vectors[a][j]
			sb += vectors[b][j]
		}
		if sa != sb {
			return sa < sb
		}
		for j := 0; j < d; j++ {
			if vectors[a][j] != vectors[b][j] {
				return vectors[a][j] < vectors[b][j]
			}
		}
		return false
	})

	// A node is implied-satisfying if any lower neighbor satisfies.
	lowerSatisfies := func(levels []int) bool {
		for j := 0; j < d; j++ {
			if levels[j] > minLevel[j] {
				levels[j]--
				ok := satisfied[key(levels)]
				levels[j]++
				if ok {
					return true
				}
			}
		}
		return false
	}

	jointEvals := 0
	for _, v := range vectors {
		if lowerSatisfies(v) {
			satisfied[key(v)] = true // roll-up: no evaluation needed
			continue
		}
		min, err := eval.MinSizeAt(v)
		if err != nil {
			return nil, err
		}
		res.Evaluated++
		jointEvals++
		if min >= cfg.K {
			satisfied[key(v)] = true
			res.Minimal = append(res.Minimal, append([]int(nil), v...))
		}
	}
	if len(res.Minimal) == 0 {
		return nil, fmt.Errorf("generalize: no full-domain recoding is %d-anonymous", cfg.K)
	}

	// Pick the loss-best minimal vector from group sizes; only the winner
	// is materialized.
	best := -1
	var bestLoss float64
	for i, v := range res.Minimal {
		_, loss, err := eval.scoreAt(v)
		if err != nil {
			return nil, err
		}
		if best < 0 || loss < bestLoss {
			best, bestLoss = i, loss
		}
	}
	res.Levels = res.Minimal[best]
	res.Loss = bestLoss
	if res.Recoding, err = eval.RecodingAt(res.Levels); err != nil {
		return nil, err
	}
	if res.Groups, err = eval.GroupsAt(res.Levels); err != nil {
		return nil, err
	}
	met := cfg.Metrics
	met.Counter("generalize.groupby.rows_scanned").Add(int64(t.Len()))
	met.Counter("generalize.lattice.nodes_evaluated").Add(int64(res.Evaluated))
	// Joint nodes the roll-up pruning skipped; marginal-floor evaluations
	// are part of Evaluated but outside the joint lattice, so the count is
	// taken against jointEvals to stay non-negative.
	met.Counter("generalize.lattice.nodes_pruned").Add(int64(res.LatticeSize - jointEvals))
	return res, nil
}

// marginalFloor finds the lowest level at which a single attribute's marginal
// grouping is k-anonymous: one scan of the column builds the leaf counts, and
// each further level sums child counts into their parents (the frequency-set
// roll-up of [13] for |S| = 1). evaluated reports how many levels were
// checked; ok is false when even the root level (a single group) fails —
// impossible for a non-empty table, but kept for symmetry.
func marginalFloor(t *dataset.Table, h *hierarchy.Hierarchy, attr, k int) (level, evaluated int, ok bool) {
	counts := make([]int, h.NumNodes())
	active := make([]int32, 0, h.Leaves())
	for i := 0; i < t.Len(); i++ {
		c := t.QI(i, attr)
		if counts[c] == 0 {
			active = append(active, c)
		}
		counts[c]++
	}
	for l := 0; l <= h.Height(); l++ {
		evaluated++
		min := math.MaxInt
		for _, v := range active {
			if counts[v] < min {
				min = counts[v]
			}
		}
		if min >= k {
			return l, evaluated, true
		}
		if l == h.Height() {
			break
		}
		// Roll counts one level up: children sum into parents. The hierarchy
		// is uniform, so every active node sits at the same depth.
		next := active[:0]
		for _, v := range active {
			p := h.Parent(v)
			if counts[p] == 0 {
				next = append(next, p)
			}
			counts[p] += counts[v]
			counts[v] = 0
		}
		active = next
	}
	return 0, evaluated, false
}
