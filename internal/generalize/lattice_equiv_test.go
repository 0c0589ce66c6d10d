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

// The full-domain search scores nodes from rolled-up group sizes and groups
// rows only for the node it returns. The tests in this file pin that it
// chooses exactly what the materializing search it replaced chose; a
// test-only copy of that search is kept below as the reference.

// refSearchFullDomain is the materializing full-domain search: every visited
// node is grouped in full and scored on its groups. It returns the number of
// nodes it evaluated alongside the result.
func refSearchFullDomain(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg FullDomainConfig) (*FullDomainResult, int, error) {
	heights := make([]int, len(hiers))
	latticeSize := 1
	for j, h := range hiers {
		heights[j] = h.Height()
		if latticeSize <= maxExhaustive {
			latticeSize *= h.Height() + 1
		}
	}
	eval, err := NewLatticeEvaluator(t, hiers, cfg.Workers)
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
	if !topGroups.IsKAnonymous(cfg.K) {
		return nil, evaluated, fmt.Errorf("generalize: even full suppression violates %d-anonymity", cfg.K)
	}

	levels := make([]int, len(heights))
	if latticeSize <= maxExhaustive {
		var best *FullDomainResult
		for {
			rec, groups, err := evalLevels(levels)
			if err != nil {
				return nil, evaluated, err
			}
			if groups.IsKAnonymous(cfg.K) {
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
			return nil, evaluated, fmt.Errorf("generalize: no level vector satisfies %d-anonymity", cfg.K)
		}
		return best, evaluated, nil
	}

	rec, groups, err := evalLevels(levels)
	if err != nil {
		return nil, evaluated, err
	}
	for !groups.IsKAnonymous(cfg.K) {
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

// wideEngineTable is a random table over twelve 4-code attributes, each
// under a binary hierarchy of height 2: its 3^12-node lattice is far past
// maxExhaustive, so SearchFullDomain walks it greedily.
func wideEngineTable(n int, rng *rand.Rand) (*dataset.Table, []*hierarchy.Hierarchy) {
	const d = 12
	attrs := make([]*dataset.Attribute, d)
	hiers := make([]*hierarchy.Hierarchy, d)
	for j := range attrs {
		attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, 3)
		hiers[j] = hierarchy.MustBalanced(4, 2)
	}
	tbl := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1", "s2")))
	row := make([]int32, d+1)
	for i := 0; i < n; i++ {
		for j := range row {
			// Skewed codes give the walk groups of uneven size to merge.
			row[j] = int32(min(3, int(rng.ExpFloat64())))
		}
		row[d] = int32(rng.Intn(3))
		tbl.MustAppend(row)
	}
	return tbl, hiers
}

// highBitEngineTable is a random table over sixteen 8-code attributes, each
// under a binary hierarchy of 15 nodes (4 key bits): the first fourteen hold
// one code, so the packed keys fill all 64 bits and differ only in their top
// eight, the case a hash that reads low key bits would pile into one probe
// chain. Its lattice is walked greedily.
func highBitEngineTable(n int, rng *rand.Rand) (*dataset.Table, []*hierarchy.Hierarchy) {
	const d = 16
	attrs := make([]*dataset.Attribute, d)
	hiers := make([]*hierarchy.Hierarchy, d)
	for j := range attrs {
		attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, 7)
		hiers[j] = hierarchy.MustBalanced(8, 2)
	}
	tbl := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1")))
	row := make([]int32, d+1)
	for i := 0; i < n; i++ {
		row[d-2], row[d-1] = int32(rng.Intn(8)), int32(min(7, int(rng.ExpFloat64()*2)))
		row[d] = int32(rng.Intn(2))
		tbl.MustAppend(row)
	}
	return tbl, hiers
}

// Property: SearchFullDomain returns exactly the materializing reference's
// result — levels, recoding, groups, loss, Exhausted — and scores as many
// nodes, on a lattice it searches exhaustively and on two it walks greedily.
// The exhaustive reference groups every node in full, so this is also the
// check that the exhaustive search is loss-optimal among k-anonymous level
// vectors.
func TestSearchFullDomainMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, shape := range []struct {
			table      func(int, *rand.Rand) (*dataset.Table, []*hierarchy.Hierarchy)
			exhaustive bool
		}{{engineTable, true}, {wideEngineTable, false}, {highBitEngineTable, false}} {
			exhaustive := shape.exhaustive
			tbl, hiers := shape.table(30+rng.Intn(300), rng)
			for i := 0; i < 3; i++ {
				cfg := FullDomainConfig{K: 1 + rng.Intn(12), Workers: 1 + rng.Intn(4)}
				want, wantEvaluated, wantErr := refSearchFullDomain(tbl, hiers, cfg)
				met := obs.NewRegistry()
				cfg.Metrics = met
				got, gotErr := SearchFullDomain(tbl, hiers, cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("seed %d k %d: error %v, reference %v", seed, cfg.K, gotErr, wantErr)
					return false
				}
				if gotErr == nil && got.Exhausted != exhaustive {
					t.Errorf("seed %d k %d: Exhausted = %v, want %v", seed, cfg.K, got.Exhausted, exhaustive)
					return false
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d k %d exhaustive %v: result differs from reference", seed, cfg.K, exhaustive)
					return false
				}
				if n := met.Counter("generalize.lattice.nodes_evaluated").Value(); n != int64(wantEvaluated) {
					t.Errorf("seed %d k %d exhaustive %v: %d nodes scored, reference evaluated %d", seed, cfg.K, exhaustive, n, wantEvaluated)
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

// One greedy scoring pass — every candidate raise of a node scored from its
// pairs — allocates nothing, serial or spread over helper goroutines: the
// pair buffers are allocated at the base group count when the raisers are
// set up, and the merge tables are reused, whatever the group count.
func TestGreedyScoringAllocations(t *testing.T) {
	tbl, hiers := benchGenTable(20_000)
	eval, err := NewLatticeEvaluator(tbl, hiers, 1)
	if err != nil {
		t.Fatal(err)
	}
	heights := make([]int, len(hiers))
	for j, h := range hiers {
		heights[j] = h.Height()
	}
	levels := make([]int, len(hiers))
	cur := eval.sizesAt(levels, nil)
	if len(cur) < 100 {
		t.Fatalf("only %d base groups; the table should yield hundreds", len(cur))
	}
	for _, workers := range []int{1, 2} {
		s := &fullDomainSearch{k: 6, eval: eval, heights: heights}
		s.startRaisers(workers)
		allocs := testing.AllocsPerRun(20, func() {
			if s.bestRaise(levels, cur) < 0 {
				t.Fatal("no raise possible at the lattice bottom")
			}
		})
		s.stopRaisers()
		if allocs > 0 {
			t.Fatalf("greedy scoring pass over %d groups with %d workers allocates %v times; want 0", len(cur), workers, allocs)
		}
	}
}
