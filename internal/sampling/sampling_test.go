package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStratifiedBasic(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {3}, {4, 5}}
	s, err := StratifiedSeeded(groups, 1, 1)
	if err != nil {
		t.Fatalf("StratifiedSeeded: %v", err)
	}
	if len(s) != 3 {
		t.Fatalf("strata = %d, want 3", len(s))
	}
	for gi, st := range s {
		if st.Group != gi {
			t.Fatalf("stratum %d has Group %d", gi, st.Group)
		}
		if st.GroupSize != len(groups[gi]) {
			t.Fatalf("stratum %d GroupSize = %d, want %d", gi, st.GroupSize, len(groups[gi]))
		}
		found := false
		for _, r := range groups[gi] {
			if r == st.Row {
				found = true
			}
		}
		if !found {
			t.Fatalf("stratum %d sampled row %d outside its group", gi, st.Row)
		}
	}
}

func TestStratifiedEmptyGroup(t *testing.T) {
	if _, err := StratifiedSeeded([][]int{{0}, {}}, 1, 1); err == nil {
		t.Fatal("empty group: want error")
	}
	// The empty group sits in the last of several shards.
	groups := make([][]int, 3*ShardGroups)
	for gi := range groups[:len(groups)-1] {
		groups[gi] = []int{gi}
	}
	if _, err := StratifiedSeeded(groups, 1, 4); err == nil {
		t.Fatal("empty group in a later shard: want error")
	}
}

func TestStratifiedUniformity(t *testing.T) {
	// Each member of a group of 4 should be drawn ~uniformly (step S2):
	// count the draws over many copies of the group, which span many shards
	// and so many seed streams.
	const trials = 40000
	groups := make([][]int, trials)
	for i := range groups {
		groups[i] = []int{10, 11, 12, 13}
	}
	s, err := StratifiedSeeded(groups, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, st := range s {
		counts[st.Row]++
	}
	for r, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.01 {
			t.Fatalf("row %d frequency %v, want 0.25", r, got)
		}
	}
}

// Property: stratified sampling always emits one stratum per group with the
// correct G value (the invariant behind the published attribute t.G).
func TestStratifiedInvariant(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		next := 0
		groups := make([][]int, 0, len(sizes))
		for _, raw := range sizes {
			n := int(raw%5) + 1
			g := make([]int, n)
			for i := range g {
				g[i] = next
				next++
			}
			groups = append(groups, g)
		}
		s, err := StratifiedSeeded(groups, seed, 1)
		if err != nil || len(s) != len(groups) {
			return false
		}
		for gi, st := range s {
			if st.GroupSize != len(groups[gi]) {
				return false
			}
			if st.Row < groups[gi][0] || st.Row > groups[gi][len(groups[gi])-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
