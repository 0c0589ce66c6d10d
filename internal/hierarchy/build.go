package hierarchy

import (
	"fmt"

	"pgpub/internal/dataset"
)

// NewInterval builds a uniform hierarchy over n codes from a list of strictly
// increasing group widths, one per generalization level above the leaves.
// Level i groups the codes into intervals of widths[i] consecutive codes
// (the final interval may be shorter when widths[i] does not divide n). Each
// width must be a multiple of the previous one so the levels nest. A root
// covering the whole domain is appended automatically if the last level has
// more than one node.
//
// Example: NewInterval(70, 5, 10, 35) over Age codes 20..89 yields 5-year,
// 10-year and 35-year bands below "*", mirroring the interval generalizations
// of Table Ic.
func NewInterval(n int, widths ...int) (*Hierarchy, error) {
	if n < 1 {
		return nil, fmt.Errorf("hierarchy: domain must have at least 1 code, got %d", n)
	}
	prev := 1
	for i, w := range widths {
		if w <= prev {
			return nil, fmt.Errorf("hierarchy: width %d (=%d) must exceed previous (%d)", i, w, prev)
		}
		if w%prev != 0 {
			return nil, fmt.Errorf("hierarchy: width %d (=%d) must be a multiple of previous (%d)", i, w, prev)
		}
		prev = w
	}

	h := &Hierarchy{n: n, uniform: true}
	// Start with the leaves.
	for c := 0; c < n; c++ {
		h.parent = append(h.parent, -1)
		h.children = append(h.children, nil)
		h.lo = append(h.lo, int32(c))
		h.hi = append(h.hi, int32(c))
	}
	// prevLevel holds the node IDs of the last built level, in code order.
	prevLevel := make([]int32, n)
	for c := range prevLevel {
		prevLevel[c] = int32(c)
	}
	prevWidth := 1
	addLevel := func(width int) {
		fanout := width / prevWidth
		var level []int32
		for i := 0; i < len(prevLevel); i += fanout {
			j := i + fanout
			if j > len(prevLevel) {
				j = len(prevLevel)
			}
			kids := prevLevel[i:j]
			id := int32(len(h.parent))
			h.parent = append(h.parent, -1)
			h.children = append(h.children, append([]int32(nil), kids...))
			h.lo = append(h.lo, h.lo[kids[0]])
			h.hi = append(h.hi, h.hi[kids[len(kids)-1]])
			for _, k := range kids {
				h.parent[k] = id
			}
			level = append(level, id)
		}
		prevLevel = level
		prevWidth = width
	}
	for _, w := range widths {
		if w >= n && len(prevLevel) == 1 {
			break
		}
		addLevel(w)
	}
	if len(prevLevel) > 1 {
		addLevel(prevWidth * len(prevLevel)) // synthetic root
	}
	h.root = prevLevel[0]

	// Compute depths top-down and the height.
	h.depth = make([]int32, len(h.parent))
	var walk func(v, d int32)
	walk = func(v, d int32) {
		h.depth[v] = d
		if int(d) > h.height {
			h.height = int(d)
		}
		for _, k := range h.children[v] {
			walk(k, d+1)
		}
	}
	walk(h.root, 0)
	for c := 0; c < n; c++ {
		if int(h.depth[c]) != h.height {
			h.uniform = false
		}
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// MustInterval is NewInterval but panics on error.
func MustInterval(n int, widths ...int) *Hierarchy {
	h, err := NewInterval(n, widths...)
	if err != nil {
		panic(err)
	}
	return h
}

// NewBalanced builds a uniform hierarchy by repeatedly grouping `fanout`
// adjacent nodes until a single root remains. It is the natural taxonomy for
// categorical attributes whose codes carry no semantic order: every level
// shrinks the domain by the fanout.
func NewBalanced(n, fanout int) (*Hierarchy, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("hierarchy: fanout must be at least 2, got %d", fanout)
	}
	var widths []int
	for w := fanout; w < n; w *= fanout {
		widths = append(widths, w)
	}
	return NewInterval(n, widths...)
}

// MustBalanced is NewBalanced but panics on error.
func MustBalanced(n, fanout int) *Hierarchy {
	h, err := NewBalanced(n, fanout)
	if err != nil {
		panic(err)
	}
	return h
}

// NewFlat builds the two-level hierarchy {root over all codes}: the only
// generalization is full suppression. Appropriate for attributes like Gender.
func NewFlat(n int) (*Hierarchy, error) {
	return NewInterval(n)
}

// MustFlat is NewFlat but panics on error.
func MustFlat(n int) *Hierarchy {
	h, err := NewFlat(n)
	if err != nil {
		panic(err)
	}
	return h
}

// Hospital builds the hierarchies of the paper's Table Ic over the hospital
// schema (dataset.HospitalSchema): Age and Zipcode in 5- then 20-wide
// intervals, Gender flat.
func Hospital(s *dataset.Schema) []*Hierarchy {
	return []*Hierarchy{
		MustInterval(s.QI[0].Size(), 5, 20),
		MustFlat(s.QI[1].Size()),
		MustInterval(s.QI[2].Size(), 5, 20),
	}
}
