package generalize

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
)

// The lattice searches score nodes from rolled-up group sizes and group rows
// only for the node they return. The tests in this file pin that they choose
// exactly what the materializing searches they replaced chose; test-only
// copies of those searches are kept below as the reference.

// refSearchFullDomain is the materializing full-domain search: every visited
// node is grouped in full and scored on its groups. It returns the number of
// nodes it evaluated alongside the result.
func refSearchFullDomain(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg FullDomainConfig) (*FullDomainResult, int, error) {
	if cfg.Principle == nil {
		cfg.Principle = KAnonymity{K: 2}
	}
	if cfg.MaxExhaustive <= 0 {
		cfg.MaxExhaustive = 4096
	}
	heights := make([]int, len(hiers))
	latticeSize := 1
	for j, h := range hiers {
		heights[j] = h.Height()
		if latticeSize <= cfg.MaxExhaustive {
			latticeSize *= h.Height() + 1
		}
	}
	eval, err := NewLatticeEvaluator(t, hiers, make([]int, len(hiers)), cfg.Workers)
	if err != nil {
		return nil, 0, err
	}
	evaluated := 0
	evalLevels := func(levels []int) (*Recoding, *Groups, error) {
		evaluated++
		rec, err := eval.RecodingAt(levels)
		if err != nil {
			return nil, nil, err
		}
		g, err := eval.GroupsAt(levels)
		return rec, g, err
	}
	top := append([]int(nil), heights...)
	topRec, topGroups, err := evalLevels(top)
	if err != nil {
		return nil, evaluated, err
	}
	if !cfg.Principle.Satisfied(t, topGroups) {
		return nil, evaluated, fmt.Errorf("generalize: even full suppression violates %s", cfg.Principle)
	}

	levels := make([]int, len(heights))
	if latticeSize <= cfg.MaxExhaustive {
		var best *FullDomainResult
		for {
			rec, groups, err := evalLevels(levels)
			if err != nil {
				return nil, evaluated, err
			}
			if cfg.Principle.Satisfied(t, groups) {
				loss := Discernibility(groups)
				if best == nil || loss < best.Loss {
					best = &FullDomainResult{
						Recoding: rec, Groups: groups,
						Levels: append([]int(nil), levels...),
						Loss:   loss, Exhausted: true,
					}
				}
			}
			j := 0
			for ; j < len(levels); j++ {
				levels[j]++
				if levels[j] <= heights[j] {
					break
				}
				levels[j] = 0
			}
			if j == len(levels) {
				break
			}
		}
		if best == nil {
			return nil, evaluated, fmt.Errorf("generalize: no level vector satisfies %s", cfg.Principle)
		}
		return best, evaluated, nil
	}

	rec, groups, err := evalLevels(levels)
	if err != nil {
		return nil, evaluated, err
	}
	for !cfg.Principle.Satisfied(t, groups) {
		bestJ := -1
		var bestRec *Recoding
		var bestGroups *Groups
		bestMin, bestLoss := -1, 0.0
		for j := range levels {
			if levels[j] >= heights[j] {
				continue
			}
			levels[j]++
			r, g, err := evalLevels(levels)
			levels[j]--
			if err != nil {
				return nil, evaluated, err
			}
			min, loss := g.MinSize(), Discernibility(g)
			if min > bestMin || (min == bestMin && loss < bestLoss) {
				bestJ, bestRec, bestGroups, bestMin, bestLoss = j, r, g, min, loss
			}
		}
		if bestJ < 0 {
			return &FullDomainResult{
				Recoding: topRec, Groups: topGroups,
				Levels: top, Loss: Discernibility(topGroups),
			}, evaluated, nil
		}
		levels[bestJ]++
		rec, groups = bestRec, bestGroups
	}
	return &FullDomainResult{
		Recoding: rec, Groups: groups,
		Levels: append([]int(nil), levels...),
		Loss:   Discernibility(groups),
	}, evaluated, nil
}

// refIncognitoPick is Incognito's materializing final step: group every
// minimal vector and keep the first of least discernibility.
func refIncognitoPick(t *dataset.Table, hiers []*hierarchy.Hierarchy, minimal [][]int) (*Recoding, *Groups, []int, float64, error) {
	eval, err := NewLatticeEvaluator(t, hiers, make([]int, len(hiers)), 1)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	best := -1
	var bestLoss float64
	var bestRec *Recoding
	var bestGroups *Groups
	for i, v := range minimal {
		rec, err := eval.RecodingAt(v)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		g, err := eval.GroupsAt(v)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if loss := Discernibility(g); best < 0 || loss < bestLoss {
			best, bestLoss, bestRec, bestGroups = i, loss, rec, g
		}
	}
	return bestRec, bestGroups, minimal[best], bestLoss, nil
}

// randomPrinciple draws one of the principles the searches distinguish:
// k-anonymity (decided by sizes) or a principle that reads rows.
func randomPrinciple(rng *rand.Rand) Principle {
	switch rng.Intn(3) {
	case 0:
		return KAnonymity{K: 1 + rng.Intn(12)}
	case 1:
		return DistinctLDiversity{L: 1 + rng.Intn(3)}
	default:
		return TCloseness{T: 0.05 + 0.4*rng.Float64()}
	}
}

// Property: SearchFullDomain returns exactly the materializing reference's
// result — levels, recoding, groups, loss, Exhausted — and scores as many
// nodes, greedy and exhaustive, for every principle kind.
func TestSearchFullDomainMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := engineTable(30+rng.Intn(300), rng)
		for _, maxExhaustive := range []int{1, 0} {
			for i := 0; i < 3; i++ {
				cfg := FullDomainConfig{Principle: randomPrinciple(rng), MaxExhaustive: maxExhaustive, Workers: 1 + rng.Intn(4)}
				want, wantEvaluated, wantErr := refSearchFullDomain(tbl, hiers, cfg)
				met := obs.NewRegistry()
				cfg.Metrics = met
				got, gotErr := SearchFullDomain(tbl, hiers, cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("seed %d %v max %d: error %v, reference %v", seed, cfg.Principle, maxExhaustive, gotErr, wantErr)
					return false
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %v max %d: result differs from reference", seed, cfg.Principle, maxExhaustive)
					return false
				}
				if n := met.Counter("generalize.lattice.nodes_evaluated").Value(); n != int64(wantEvaluated) {
					t.Errorf("seed %d %v max %d: %d nodes scored, reference evaluated %d", seed, cfg.Principle, maxExhaustive, n, wantEvaluated)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Incognito's sizes-first pick equals the materializing pick over
// the same minimal vectors, ties included.
func TestIncognitoPickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := engineTable(30+rng.Intn(300), rng)
		k := 1 + rng.Intn(12)
		res, err := Incognito(tbl, hiers, IncognitoConfig{K: k, Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Errorf("seed %d k %d: %v", seed, k, err)
			return false
		}
		rec, groups, levels, loss, err := refIncognitoPick(tbl, hiers, res.Minimal)
		if err != nil {
			t.Errorf("seed %d k %d: reference: %v", seed, k, err)
			return false
		}
		if !reflect.DeepEqual(res.Recoding, rec) || !reflect.DeepEqual(res.Groups, groups) ||
			!reflect.DeepEqual(res.Levels, levels) || res.Loss != loss {
			t.Errorf("seed %d k %d: picked %v (loss %v), reference %v (loss %v)", seed, k, res.Levels, res.Loss, levels, loss)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// One greedy scoring pass — every candidate raise of a node scored from its
// pairs — allocates nothing once its buffers have grown: the pair buffers
// and the merge map are reused, whatever the group count.
func TestGreedyScoringAllocations(t *testing.T) {
	tbl, hiers := benchGenTable(20_000)
	eval, err := NewLatticeEvaluator(tbl, hiers, make([]int, len(hiers)), 1)
	if err != nil {
		t.Fatal(err)
	}
	heights := make([]int, len(hiers))
	for j, h := range hiers {
		heights[j] = h.Height()
	}
	s := &fullDomainSearch{t: tbl, principle: KAnonymity{K: 6}, eval: eval, heights: heights}
	levels := make([]int, len(hiers))
	cur := eval.sizesAt(levels, nil)
	if len(cur) < 100 {
		t.Fatalf("only %d base groups; the table should yield hundreds", len(cur))
	}
	s.bestRaise(levels, cur) // grow the buffers
	allocs := testing.AllocsPerRun(20, func() {
		if s.bestRaise(levels, cur) < 0 {
			t.Fatal("no raise possible at the lattice bottom")
		}
	})
	if allocs > 0 {
		t.Fatalf("greedy scoring pass over %d groups allocates %v times; want 0", len(cur), allocs)
	}
}
