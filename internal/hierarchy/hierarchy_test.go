package hierarchy

import (
	"reflect"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
)

func TestNewIntervalBasic(t *testing.T) {
	h, err := NewInterval(8, 2, 4)
	if err != nil {
		t.Fatalf("NewInterval: %v", err)
	}
	if h.Leaves() != 8 {
		t.Fatalf("Leaves = %d", h.Leaves())
	}
	// 8 leaves + 4 pairs + 2 quads + root = 15 nodes.
	if h.NumNodes() != 15 {
		t.Fatalf("NumNodes = %d, want 15", h.NumNodes())
	}
	if !h.Uniform() {
		t.Fatal("interval hierarchy should be uniform")
	}
	if h.Height() != 3 {
		t.Fatalf("Height = %d, want 3", h.Height())
	}
	if h.Parent(h.Root()) != -1 {
		t.Fatal("root must be parentless")
	}
	// Leaf 7: ancestors are pair [6,7], quad [4,7], root.
	a1 := h.AncestorAbove(7, 1)
	if lo, hi := h.Range(a1); lo != 6 || hi != 7 {
		t.Fatalf("ancestor1 range = [%d,%d], want [6,7]", lo, hi)
	}
	a2 := h.AncestorAbove(7, 2)
	if lo, hi := h.Range(a2); lo != 4 || hi != 7 {
		t.Fatalf("ancestor2 range = [%d,%d], want [4,7]", lo, hi)
	}
	if h.AncestorAbove(7, 3) != h.Root() || h.AncestorAbove(7, 99) != h.Root() {
		t.Fatal("ancestor walk should clamp at root")
	}
	if h.AncestorAbove(7, 0) != 7 {
		t.Fatal("0 steps should return the leaf")
	}
}

func TestNewIntervalNonDividing(t *testing.T) {
	// 7 leaves, width 3: groups [0-2],[3-5],[6-6], then root.
	h, err := NewInterval(7, 3)
	if err != nil {
		t.Fatalf("NewInterval: %v", err)
	}
	if h.NumNodes() != 7+3+1 {
		t.Fatalf("NumNodes = %d, want 11", h.NumNodes())
	}
	last := h.AncestorAbove(6, 1)
	if lo, hi := h.Range(last); lo != 6 || hi != 6 {
		t.Fatalf("ragged group range = [%d,%d], want [6,6]", lo, hi)
	}
	if h.Span(last) != 1 {
		t.Fatalf("Span = %d, want 1", h.Span(last))
	}
}

func TestNewIntervalErrors(t *testing.T) {
	if _, err := NewInterval(0); err == nil {
		t.Fatal("empty domain: want error")
	}
	if _, err := NewInterval(10, 1); err == nil {
		t.Fatal("width 1: want error")
	}
	if _, err := NewInterval(10, 4, 2); err == nil {
		t.Fatal("decreasing widths: want error")
	}
	if _, err := NewInterval(12, 2, 3); err == nil {
		t.Fatal("non-nesting widths: want error")
	}
}

func TestNewFlat(t *testing.T) {
	h := MustFlat(2)
	if h.Height() != 1 || h.NumNodes() != 3 {
		t.Fatalf("flat: height %d nodes %d", h.Height(), h.NumNodes())
	}
	if !h.Covers(h.Root(), 0) || !h.Covers(h.Root(), 1) {
		t.Fatal("root must cover all leaves")
	}
	one := MustFlat(1)
	if one.Root() != 0 || one.Height() != 0 {
		t.Fatalf("singleton domain: root=%d height=%d", one.Root(), one.Height())
	}
}

func TestNewBalanced(t *testing.T) {
	h, err := NewBalanced(16, 4)
	if err != nil {
		t.Fatalf("NewBalanced: %v", err)
	}
	// 16 leaves + 4 + 1 root = 21 nodes, height 2.
	if h.NumNodes() != 21 || h.Height() != 2 {
		t.Fatalf("balanced: nodes %d height %d", h.NumNodes(), h.Height())
	}
	if _, err := NewBalanced(8, 1); err == nil {
		t.Fatal("fanout 1: want error")
	}
}

func TestLabel(t *testing.T) {
	a := dataset.MustIntAttribute("Age", 20, 29)
	h := MustInterval(10, 5)
	if got := h.Label(3, a); got != "23" {
		t.Fatalf("leaf label = %q", got)
	}
	if got := h.Label(h.AncestorAbove(3, 1), a); got != "[20-24]" {
		t.Fatalf("interval label = %q", got)
	}
	if got := h.Label(h.Root(), a); got != "*" {
		t.Fatalf("root label = %q", got)
	}
}

func TestCutsBasics(t *testing.T) {
	h := MustInterval(8, 2, 4)
	top := TopCut(h)
	if top.Size() != 1 || top.Map(7) != h.Root() {
		t.Fatal("TopCut wrong")
	}
	bot, err := LevelCut(h, 0)
	if err != nil {
		t.Fatalf("LevelCut: %v", err)
	}
	if bot.Size() != 8 || bot.Map(4) != 4 {
		t.Fatal("level-0 cut wrong")
	}
	lc, err := LevelCut(h, 1)
	if err != nil {
		t.Fatalf("LevelCut: %v", err)
	}
	if lc.Size() != 4 {
		t.Fatalf("level-1 cut size = %d, want 4", lc.Size())
	}
	if lo, hi := h.Range(lc.Map(7)); lo != 6 || hi != 7 {
		t.Fatalf("level-1 map(7) covers [%d,%d]", lo, hi)
	}
	if _, err := LevelCut(h, -1); err == nil {
		t.Fatal("negative level: want error")
	}
	if _, err := LevelCut(h, 99); err == nil {
		t.Fatal("excessive level: want error")
	}
}

func TestNewCutValidation(t *testing.T) {
	h := MustInterval(8, 2, 4)
	pair01 := h.AncestorAbove(0, 1)
	quad0 := h.AncestorAbove(0, 2)
	quad1 := h.AncestorAbove(4, 2)
	// Valid mixed-depth cut: [0-1] as a pair, leaves 2..3, quad [4-7].
	nodes := []int32{pair01, 2, 3, quad1}
	c, err := NewCut(h, nodes)
	if err != nil {
		t.Fatalf("NewCut: %v", err)
	}
	if c.Map(1) != pair01 || c.Map(3) != 3 || c.Map(6) != quad1 {
		t.Fatal("cut mapping wrong")
	}
	if !c.Contains(pair01) || c.Contains(quad0) {
		t.Fatal("Contains wrong")
	}
	// Overlap: quad0 overlaps pair01.
	if _, err := NewCut(h, []int32{pair01, quad0, quad1}); err == nil {
		t.Fatal("overlapping cut: want error")
	}
	// Gap: missing leaves 2..3.
	if _, err := NewCut(h, []int32{pair01, quad1}); err == nil {
		t.Fatal("gappy cut: want error")
	}
	// Out of range node.
	if _, err := NewCut(h, []int32{-1}); err == nil {
		t.Fatal("negative node: want error")
	}
	if _, err := NewCut(h, []int32{int32(h.NumNodes())}); err == nil {
		t.Fatal("oversized node: want error")
	}
	// Beside valid nodes, an out-of-range node must be refused before the
	// range sort reads its bounds (a snapshot decoder found this panic).
	if _, err := NewCut(h, []int32{pair01, 2, 808464432, quad1}); err == nil {
		t.Fatal("oversized node among valid ones: want error")
	}
}

func TestCutRefine(t *testing.T) {
	h := MustInterval(8, 2, 4)
	top := TopCut(h)
	c, err := top.Refine(h.Root())
	if err != nil {
		t.Fatalf("Refine(root): %v", err)
	}
	if c.Size() != 2 {
		t.Fatalf("refined size = %d, want 2", c.Size())
	}
	// Original cut untouched.
	if top.Size() != 1 {
		t.Fatal("Refine mutated the receiver")
	}
	// Refine a quad into pairs.
	quad := c.Nodes()[0]
	c2, err := c.Refine(quad)
	if err != nil {
		t.Fatalf("Refine(quad): %v", err)
	}
	if c2.Size() != 3 {
		t.Fatalf("size = %d, want 3", c2.Size())
	}
	if c2.Map(0) == quad {
		t.Fatal("leafTo not updated after refine")
	}
	// Errors.
	if _, err := c2.Refine(0); err == nil && h.IsLeaf(0) {
		t.Fatal("refining a leaf must error")
	}
	if _, err := c2.Refine(quad); err == nil {
		t.Fatal("refining a departed node must error")
	}
}

// refinable returns the cut's nodes that are not leaves: the nodes Refine
// accepts.
func refinable(h *Hierarchy, c *Cut) []int32 {
	var out []int32
	for _, v := range c.Nodes() {
		if !h.IsLeaf(v) {
			out = append(out, v)
		}
	}
	return out
}

// Property: for any hierarchy built from a width chain, every sequence of
// random refinements keeps the cut a disjoint exact cover.
func TestCutRefineInvariant(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%60) + 2
		h, err := NewInterval(n, 2, 4, 8)
		if err != nil {
			return false
		}
		c := TopCut(h)
		for steps := 0; steps < 20; steps++ {
			cand := refinable(h, c)
			if len(cand) == 0 {
				break
			}
			idx := int(uint64(seed) % uint64(len(cand)))
			v := cand[idx]
			seed = seed*6364136223846793005 + 1442695040888963407
			nc, err := c.Refine(v)
			if err != nil {
				return false
			}
			c = nc
			// Re-validate: NewCut must accept the node set.
			if _, err := NewCut(h, c.Nodes()); err != nil {
				return false
			}
			// Mapping consistency.
			for l := int32(0); int(l) < n; l++ {
				if !h.Covers(c.Map(l), l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := MustInterval(6, 3)
	c := TopCut(h)
	cl := c.Clone()
	r, err := cl.Refine(h.Root())
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	_ = r
	if !reflect.DeepEqual(c.Nodes(), []int32{h.Root()}) {
		t.Fatal("clone refinement affected original")
	}
}

// The immutability contract on Cut: Refine must not alter the receiver. The
// generalize package's grouping engine shares Cut pointers across recoding
// snapshots, so a mutating Refine would corrupt groups derived earlier.
func TestRefineLeavesReceiverUntouched(t *testing.T) {
	h := MustInterval(8, 2, 4)
	c := TopCut(h)
	nodes := append([]int32(nil), c.Nodes()...)
	maps := make([]int32, h.Leaves())
	for l := range maps {
		maps[l] = c.Map(int32(l))
	}
	refined, err := c.Refine(h.Root())
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if reflect.DeepEqual(refined.Nodes(), nodes) {
		t.Fatal("Refine returned an unchanged cut")
	}
	if !reflect.DeepEqual(c.Nodes(), nodes) {
		t.Fatalf("Refine mutated the receiver's nodes: %v", c.Nodes())
	}
	for l := range maps {
		if c.Map(int32(l)) != maps[l] {
			t.Fatalf("Refine mutated the receiver's mapping at leaf %d", l)
		}
	}
	// And a refinement of the refined cut leaves that one intact too.
	mid := append([]int32(nil), refined.Nodes()...)
	if _, err := refined.Refine(refinable(h, refined)[0]); err != nil {
		t.Fatalf("second Refine: %v", err)
	}
	if !reflect.DeepEqual(refined.Nodes(), mid) {
		t.Fatal("second Refine mutated its receiver")
	}
}
