package generalize

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

// engineTable builds a random table over three QI attributes whose
// hierarchies exercise all three shapes: interval bands, a balanced tree,
// and a flat (leaf/root only) hierarchy.
func engineTable(n int, rng *rand.Rand) (*dataset.Table, []*hierarchy.Hierarchy) {
	s := dataset.MustSchema(
		[]*dataset.Attribute{
			dataset.MustIntAttribute("I", 0, 15),
			dataset.MustIntAttribute("B", 0, 7),
			dataset.MustIntAttribute("F", 0, 5),
		},
		dataset.MustAttribute("S", "s0", "s1", "s2"),
	)
	tbl := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		tbl.MustAppend([]int32{int32(rng.Intn(16)), int32(rng.Intn(8)), int32(rng.Intn(6)), int32(rng.Intn(3))})
	}
	hiers := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(16, 2, 4, 8),
		hierarchy.MustBalanced(8, 2),
		hierarchy.MustFlat(6),
	}
	return tbl, hiers
}

// randomEngineRecoding refines each attribute's cut a random number of steps
// down from the top.
func randomEngineRecoding(tbl *dataset.Table, hiers []*hierarchy.Hierarchy, rng *rand.Rand) *Recoding {
	rec, err := TopRecoding(tbl.Schema, hiers)
	if err != nil {
		panic(err)
	}
	for j := range rec.Cuts {
		for step := 0; step < rng.Intn(4); step++ {
			cand := refinable(hiers[j], rec.Cuts[j])
			if len(cand) == 0 {
				break
			}
			refined, err := rec.Cuts[j].Refine(cand[rng.Intn(len(cand))])
			if err != nil {
				panic(err)
			}
			rec.Cuts[j] = refined
		}
	}
	return rec
}

// Property: the packed sharded grouping is identical — keys, row sets, and
// order — to the byte-keyed reference it replaced, for every worker count.
func TestGroupByWorkersMatchesBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := engineTable(200+rng.Intn(200), rng)
		rec := randomEngineRecoding(tbl, hiers, rng)
		want := groupByBytes(tbl, rec)
		for _, w := range []int{1, 2, 8} {
			got := GroupByWorkers(tbl, rec, w)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The sharded merge path only engages beyond groupShardSize rows; run it
// once at that scale and require byte-identical results across worker counts.
func TestGroupByWorkersShardedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(7))
	tbl, hiers := engineTable(3*groupShardSize+17, rng)
	rec := randomEngineRecoding(tbl, hiers, rng)
	want := GroupByWorkers(tbl, rec, 1)
	if !reflect.DeepEqual(want, groupByBytes(tbl, rec)) {
		t.Fatal("sequential packed grouping disagrees with byte-keyed reference")
	}
	for _, w := range []int{2, 4, 8} {
		if got := GroupByWorkers(tbl, rec, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("GroupByWorkers(%d) differs from workers=1", w)
		}
	}
}

// A schema whose packed key widths exceed 64 bits must route to the byte
// fallback and still honor the canonical-form contract.
func TestGroupByWideSchemaFallback(t *testing.T) {
	const d = 11 // 11 attributes x 6 bits (MustFlat(32) has 33 nodes) = 66 > 64
	attrs := make([]*dataset.Attribute, d)
	hiers := make([]*hierarchy.Hierarchy, d)
	for j := 0; j < d; j++ {
		attrs[j] = dataset.MustIntAttribute("A"+string(rune('a'+j)), 0, 31)
		hiers[j] = hierarchy.MustFlat(32)
	}
	if p := newKeyPacker(hiers); p.fits {
		t.Fatal("keyPacker claims 11x6-bit keys fit in 64 bits")
	}
	s := dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1"))
	tbl := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(3))
	row := make([]int32, d+1)
	for i := 0; i < 500; i++ {
		for j := 0; j < d; j++ {
			row[j] = int32(rng.Intn(32))
		}
		row[d] = int32(rng.Intn(2))
		tbl.MustAppend(row)
	}
	rec := identityRecoding(t, s, hiers)
	g := GroupByWorkers(tbl, rec, 8)
	seen := 0
	lastFirst := -1
	for gi, rows := range g.Rows {
		if len(rows) == 0 {
			t.Fatalf("group %d is empty", gi)
		}
		if rows[0] <= lastFirst {
			t.Fatalf("group %d out of first-appearance order", gi)
		}
		lastFirst = rows[0]
		for k := 1; k < len(rows); k++ {
			if rows[k] <= rows[k-1] {
				t.Fatalf("group %d rows not ascending", gi)
			}
		}
		seen += len(rows)
	}
	if seen != tbl.Len() {
		t.Fatalf("groups cover %d of %d rows", seen, tbl.Len())
	}
}

// Property: TDS's incremental refinement ends at exactly the grouping a
// from-scratch GroupBy of its final recoding produces — same keys, same row
// sets, same canonical order.
func TestTDSIncrementalMatchesRescan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := engineTable(150+rng.Intn(150), rng)
		res, err := TDS(tbl, hiers, TDSConfig{K: 2 + rng.Intn(4)})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(res.Groups, GroupBy(tbl, res.Recoding))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every lattice node's rolled-up grouping equals a from-scratch
// GroupBy under the node's recoding, and the size-based minimum and
// discernibility agree with the materialized groups.
func TestLatticeRollupMatchesGroupBy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := engineTable(120+rng.Intn(120), rng)
		eval, err := NewLatticeEvaluator(tbl, hiers, 1+rng.Intn(4))
		if err != nil {
			return false
		}
		// Walk every level vector.
		levels := make([]int, len(hiers))
		for {
			rec, err := eval.RecodingAt(levels)
			if err != nil {
				return false
			}
			want := GroupBy(tbl, rec)
			got, err := eval.GroupsAt(levels)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
			min, loss, err := eval.scoreAt(levels)
			if err != nil || min != want.MinSize() || loss != Discernibility(want) {
				return false
			}
			j := 0
			for ; j < len(levels); j++ {
				levels[j]++
				if levels[j] <= hiers[j].Height() {
					break
				}
				levels[j] = 0
			}
			if j == len(levels) {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The evaluator rejects level vectors outside the lattice.
func TestLatticeEvaluatorLevelBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl, hiers := engineTable(64, rng)
	eval, err := NewLatticeEvaluator(tbl, hiers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.GroupsAt([]int{-1, 1, 0}); err == nil {
		t.Fatal("GroupsAt below the leaves: want error")
	}
	if _, _, err := eval.scoreAt([]int{1, 1, 2}); err == nil {
		t.Fatal("scoreAt above the hierarchy height: want error")
	}
	if _, err := eval.GroupsAt([]int{1, 1}); err == nil {
		t.Fatal("GroupsAt with short vector: want error")
	}
}

// Lattice scoring reads node IDs back out of packed keys, so a schema whose
// node IDs need more than 64 key bits is refused rather than merged wrongly.
func TestLatticeEvaluatorWideKeys(t *testing.T) {
	attrs := make([]*dataset.Attribute, 9)
	hiers := make([]*hierarchy.Hierarchy, 9)
	for j := range attrs {
		attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, 254)
		hiers[j] = hierarchy.MustFlat(255) // 256 nodes: 8 key bits each
	}
	tbl := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", "x", "y")))
	tbl.MustAppend([]int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := NewLatticeEvaluator(tbl, hiers, 1); err == nil {
		t.Fatal("72 key bits: want error")
	}
}

// The lattice's key table maps every key to the index stored on its first
// lookup, including keys that differ only in their high bits, forgets them
// all on reset, and survives its generation stamp wrapping around.
func TestKeyTable(t *testing.T) {
	const n = 5000
	tab := newKeyTable(n)
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			if idx, found := tab.lookup(uint64(i)<<51, int32(i)); found || idx != int32(i) {
				t.Fatalf("round %d: fresh key %d found=%v idx=%d", round, i, found, idx)
			}
		}
		for i := n - 1; i >= 0; i-- {
			if idx, found := tab.lookup(uint64(i)<<51, -1); !found || idx != int32(i) {
				t.Fatalf("round %d: key %d found=%v idx=%d, want %d", round, i, found, idx, i)
			}
		}
		if round == 0 {
			// The reset wraps the stamp back to round 0's: without the
			// clear, round 1 would find round 0's keys.
			tab.gen = ^uint32(0)
		}
		tab.reset()
	}
}
