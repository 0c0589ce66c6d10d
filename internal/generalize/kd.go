package generalize

import (
	"cmp"
	"fmt"
	"slices"

	"pgpub/internal/dataset"
)

// Box is an axis-aligned cell of the QI space U^q: per attribute an
// inclusive code interval [Lo, Hi]. A box generalizes a QI vector iff the
// vector lies inside it. Boxes are the canonical representation of
// generalized QI vectors across Phase-2 algorithms: a cut-recoding vector is
// the product of its nodes' leaf ranges, and a kd-partition cell is a box by
// construction.
type Box struct {
	Lo, Hi []int32
}

// Covers reports whether the box generalizes the raw QI vector v.
func (b Box) Covers(v []int32) bool {
	for j := range v {
		if v[j] < b.Lo[j] || v[j] > b.Hi[j] {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (b Box) Equal(o Box) bool {
	for j := range b.Lo {
		if b.Lo[j] != o.Lo[j] || b.Hi[j] != o.Hi[j] {
			return false
		}
	}
	return true
}

// BoxOf converts a generalized node vector of this recoding into its box.
func (r *Recoding) BoxOf(g []int32) Box {
	d := len(g)
	b := Box{Lo: make([]int32, d), Hi: make([]int32, d)}
	for j, n := range g {
		b.Lo[j], b.Hi[j] = r.Hierarchies[j].Range(n)
	}
	return b
}

// KDResult is the outcome of KDPartitionParallel: disjoint cells covering
// the whole QI space (so any external QI vector falls in exactly one cell —
// the uniqueness property behind attack step A1), each holding at least k
// rows.
type KDResult struct {
	Cells []Box
	Rows  [][]int
}

// KDPartitionParallel recursively median-splits the QI space in the style of
// Mondrian strict partitioning [16], but publishes the *cells* of the
// recursion rather than the groups' bounding boxes: cells are pairwise
// disjoint and exhaustively cover U^q, which is exactly Property G3. Every
// cell contains at least k rows.
//
// This is the Phase-2 algorithm our SAL experiments use: single-dimensional
// global recoding (TDS, full-domain) stalls on smooth synthetic data —
// one undersized group anywhere blocks every further specialization of an
// attribute — whereas kd-cells keep QI-groups near the minimal size k, which
// the paper's cardinality argument |D*| ≈ |D|/k presumes.
//
// The top spawnDepth levels of the recursion fan out across goroutines. The
// output is bit-identical for every spawnDepth: splits do not depend on
// evaluation order, and results are merged left-then-right. spawnDepth 0 is
// fully serial; 3–4 saturates a typical machine (up to 2^spawnDepth
// goroutines).
func KDPartitionParallel(t *dataset.Table, k, spawnDepth int) (*KDResult, error) {
	if spawnDepth < 0 {
		return nil, fmt.Errorf("generalize: spawnDepth must be non-negative, got %d", spawnDepth)
	}
	if k < 1 {
		return nil, fmt.Errorf("generalize: KDPartitionParallel needs k >= 1, got %d", k)
	}
	if t.Len() < k {
		return nil, fmt.Errorf("generalize: table has %d rows, cannot form cells of %d", t.Len(), k)
	}
	root := fullDomainBox(t.Schema)
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	return kdRecurse(t, k, root, all, spawnDepth, &kdScratch{}), nil
}

// kdRecurse partitions one cell, spawning goroutines for the subtrees while
// spawnDepth is positive. Rows are partitioned in place, so every cell's
// rows are a capacity-capped window of the one row array KDPartitionParallel
// allocates; each goroutine owns its scratch.
func kdRecurse(t *dataset.Table, k int, cell Box, rows []int, spawnDepth int, sc *kdScratch) *KDResult {
	attr, cut, ok := chooseKDSplit(t, cell, rows, k, sc)
	if !ok {
		return &KDResult{Cells: []Box{cell}, Rows: [][]int{rows[:len(rows):len(rows)]}}
	}
	left, right := partition(t, rows, attr, cut, sc)
	lc := Box{Lo: append([]int32(nil), cell.Lo...), Hi: append([]int32(nil), cell.Hi...)}
	rc := Box{Lo: append([]int32(nil), cell.Lo...), Hi: append([]int32(nil), cell.Hi...)}
	lc.Hi[attr] = cut
	rc.Lo[attr] = cut + 1
	var lres, rres *KDResult
	if spawnDepth > 0 {
		done := make(chan struct{})
		go func() {
			lres = kdRecurse(t, k, lc, left, spawnDepth-1, &kdScratch{})
			close(done)
		}()
		rres = kdRecurse(t, k, rc, right, spawnDepth-1, sc)
		<-done
	} else {
		lres = kdRecurse(t, k, lc, left, 0, sc)
		rres = kdRecurse(t, k, rc, right, 0, sc)
	}
	return &KDResult{
		Cells: append(lres.Cells, rres.Cells...),
		Rows:  append(lres.Rows, rres.Rows...),
	}
}

// partition splits rows in place on attr <= cut with one gather over the
// attribute's contiguous column.
func partition(t *dataset.Table, rows []int, attr int, cut int32, sc *kdScratch) (left, right []int) {
	return colPartition(t.QICol(attr), rows, cut, sc)
}

// fullDomainBox is the box covering the entire QI code space.
func fullDomainBox(schema *dataset.Schema) Box {
	d := schema.D()
	b := Box{Lo: make([]int32, d), Hi: make([]int32, d)}
	for j, a := range schema.QI {
		b.Hi[j] = int32(a.Size() - 1)
	}
	return b
}

// kdSpan is one attribute's normalized spread inside a cell, with the code
// range [lo, hi] it was measured over.
type kdSpan struct {
	attr   int
	width  float64
	lo, hi int32
}

// kdScratch is the reusable buffer set of one goroutine's split search and
// partition; the zero value is ready to use.
type kdScratch struct {
	spans []kdSpan
	hist  []int
	vals  []int32
	spill []int
}

// chooseKDSplit picks the widest-spread attribute admitting a median split
// with both sides >= k inside the current cell: attributes are ranked by
// normalized span of values present in rows, and the first (widest) one
// admitting a split wins. All scans are column gathers: each attribute's
// codes come from one contiguous array, so the span pass reads d sequential
// streams instead of d values per row slice. The median and both candidate
// cuts' left-side counts come from one counting pass (medianCounts), not a
// sort.
func chooseKDSplit(t *dataset.Table, cell Box, rows []int, k int, sc *kdScratch) (attr int, cut int32, ok bool) {
	if len(rows) < 2*k {
		return 0, 0, false
	}
	d := t.Schema.D()
	spans := sc.spans[:0]
	for a := 0; a < d; a++ {
		lo, hi := colMinMax(t.QICol(a), rows)
		if hi > lo {
			spans = append(spans, kdSpan{a, float64(hi-lo) / float64(t.Schema.QI[a].Size()-1), lo, hi})
		}
	}
	sc.spans = spans
	// Tied widths must rank as sort.Slice ranks them, or published cells
	// change; slices.SortFunc runs the same pdqsort without its reflective
	// swapper.
	slices.SortFunc(spans, func(x, y kdSpan) int { return cmp.Compare(y.width, x.width) })
	for _, s := range spans {
		m, below, atOrBelow := medianCounts(t.QICol(s.attr), rows, s.lo, s.hi, sc)
		for c, nl := range [2]int{below, atOrBelow} {
			cut := m - 1 + int32(c)
			if cut < cell.Lo[s.attr] || cut >= cell.Hi[s.attr] {
				continue
			}
			if nl >= k && len(rows)-nl >= k {
				return s.attr, cut, true
			}
		}
	}
	return 0, 0, false
}
