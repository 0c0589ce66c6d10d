package hierarchy

import (
	"fmt"
	"sort"
)

// Cut is an antichain of hierarchy nodes that covers every leaf exactly once.
// Recoding an attribute through a cut replaces each domain code with the cut
// node covering it. Top-down specialization (Fung et al.) walks the cut from
// {root} toward the leaves; full-domain recoding uses the cut of all nodes at
// a fixed level.
//
// A Cut is immutable once constructed: no method mutates the receiver —
// Refine returns a fresh cut. Holders may therefore share, cache, and alias
// Cut pointers freely; the generalize package's incremental grouping engine
// and Recoding.Clone rely on this (see the ownership rule on
// generalize.Recoding).
type Cut struct {
	h      *Hierarchy
	nodes  []int32 // sorted by covered range
	leafTo []int32 // leaf code -> covering cut node
}

// NewCut validates that nodes form a disjoint exact cover of the leaves and
// returns the cut.
func NewCut(h *Hierarchy, nodes []int32) (*Cut, error) {
	// Range-check before sorting: the sort indexes h.lo by node.
	for _, v := range nodes {
		if v < 0 || int(v) >= h.NumNodes() {
			return nil, fmt.Errorf("hierarchy: cut node %d out of range", v)
		}
	}
	c := &Cut{h: h, nodes: append([]int32(nil), nodes...), leafTo: make([]int32, h.Leaves())}
	sort.Slice(c.nodes, func(i, j int) bool { return h.lo[c.nodes[i]] < h.lo[c.nodes[j]] })
	next := int32(0)
	for _, v := range c.nodes {
		if h.lo[v] != next {
			return nil, fmt.Errorf("hierarchy: cut gap or overlap at leaf %d (node %d starts at %d)", next, v, h.lo[v])
		}
		for l := h.lo[v]; l <= h.hi[v]; l++ {
			c.leafTo[l] = v
		}
		next = h.hi[v] + 1
	}
	if int(next) != h.Leaves() {
		return nil, fmt.Errorf("hierarchy: cut covers %d of %d leaves", next, h.Leaves())
	}
	return c, nil
}

// TopCut returns the cut {root}: everything generalized to "*".
func TopCut(h *Hierarchy) *Cut {
	c, err := NewCut(h, []int32{h.Root()})
	if err != nil {
		panic(err) // cannot happen: the root always covers all leaves
	}
	return c
}

// LevelCut returns the cut of all ancestors `level` steps above the leaves
// (level 0 = the leaves). The hierarchy must be uniform.
func LevelCut(h *Hierarchy, level int) (*Cut, error) {
	if !h.Uniform() {
		return nil, fmt.Errorf("hierarchy: level cuts need a uniform hierarchy")
	}
	if level < 0 || level > h.Height() {
		return nil, fmt.Errorf("hierarchy: level %d out of [0,%d]", level, h.Height())
	}
	seen := make(map[int32]bool)
	var nodes []int32
	for c := int32(0); int(c) < h.Leaves(); c++ {
		v := h.AncestorAbove(c, level)
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	return NewCut(h, nodes)
}

// Hierarchy returns the tree this cut belongs to.
func (c *Cut) Hierarchy() *Hierarchy { return c.h }

// Nodes returns the cut's nodes sorted by covered range. Read-only.
func (c *Cut) Nodes() []int32 { return c.nodes }

// Size returns the number of nodes in the cut.
func (c *Cut) Size() int { return len(c.nodes) }

// Map returns the cut node covering leaf code l.
func (c *Cut) Map(l int32) int32 { return c.leafTo[l] }

// LeafMap returns the full leaf-code → cut-node lookup table (index l holds
// Map(l)). Read-only: the cut is immutable and the slice is its backing
// array. Column-sweeping hot paths use it to resolve a whole column against
// the cut without a method call per row.
func (c *Cut) LeafMap() []int32 { return c.leafTo }

// Contains reports whether v is one of the cut's nodes.
func (c *Cut) Contains(v int32) bool {
	i := sort.Search(len(c.nodes), func(i int) bool { return c.h.lo[c.nodes[i]] >= c.h.lo[v] })
	return i < len(c.nodes) && c.nodes[i] == v
}

// Clone deep-copies the cut.
func (c *Cut) Clone() *Cut {
	return &Cut{
		h:      c.h,
		nodes:  append([]int32(nil), c.nodes...),
		leafTo: append([]int32(nil), c.leafTo...),
	}
}

// Refine returns a new cut with node v replaced by its children (the TDS
// specialization step). Refining a leaf is an error.
func (c *Cut) Refine(v int32) (*Cut, error) {
	if c.h.IsLeaf(v) {
		return nil, fmt.Errorf("hierarchy: cannot refine leaf %d", v)
	}
	if !c.Contains(v) {
		return nil, fmt.Errorf("hierarchy: node %d is not in the cut", v)
	}
	n := c.Clone()
	for i, w := range n.nodes {
		if w == v {
			repl := append([]int32(nil), n.nodes[:i]...)
			repl = append(repl, c.h.Children(v)...)
			repl = append(repl, n.nodes[i+1:]...)
			n.nodes = repl
			break
		}
	}
	sort.Slice(n.nodes, func(i, j int) bool { return c.h.lo[n.nodes[i]] < c.h.lo[n.nodes[j]] })
	for _, k := range c.h.Children(v) {
		for l := c.h.lo[k]; l <= c.h.hi[k]; l++ {
			n.leafTo[l] = k
		}
	}
	return n, nil
}
