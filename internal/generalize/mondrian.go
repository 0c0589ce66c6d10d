package generalize

import (
	"fmt"

	"pgpub/internal/dataset"
)

// MondrianBox is one partition produced by the Mondrian algorithm: the rows
// it contains and, per QI attribute, the inclusive code range the partition
// spans. Mondrian performs *local* recoding — two boxes may overlap in QI
// space — so it violates Property G3 and cannot serve as Phase 2 of PG; it
// exists here as the classic multidimensional baseline for the information-
// loss ablation (Extra E2 in DESIGN.md).
type MondrianBox struct {
	Lo, Hi []int32
	Rows   []int
}

// Mondrian partitions the table into boxes of at least k rows using median
// splits on the attribute with the widest normalized range (LeFevre et al.,
// ICDE'06, strict partitioning).
func Mondrian(t *dataset.Table, k int) ([]MondrianBox, error) {
	if k < 1 {
		return nil, fmt.Errorf("generalize: Mondrian needs k >= 1, got %d", k)
	}
	if t.Len() < k {
		return nil, fmt.Errorf("generalize: table has %d rows, cannot form groups of %d", t.Len(), k)
	}
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	var out []MondrianBox
	sc := &kdScratch{}
	var recurse func(rows []int)
	recurse = func(rows []int) {
		if attr, median, ok := chooseSplit(t, rows, k, sc); ok {
			left, right := partition(t, rows, attr, median, sc)
			recurse(left)
			recurse(right)
			return
		}
		out = append(out, summarize(t, rows))
	}
	recurse(all)
	return out, nil
}

// chooseSplit finds the best allowable median split (the Mondrian split
// rule). It is chooseKDSplit over the full QI domain: the cell-bound filter
// is vacuous there, because a cut outside the domain always starves one
// side and is rejected by the >= k checks anyway.
func chooseSplit(t *dataset.Table, rows []int, k int, sc *kdScratch) (attr int, median int32, ok bool) {
	return chooseKDSplit(t, fullDomainBox(t.Schema), rows, k, sc)
}

// partition splits rows in place on attr <= cut with one gather over the
// attribute's contiguous column.
func partition(t *dataset.Table, rows []int, attr int, cut int32, sc *kdScratch) (left, right []int) {
	return colPartition(t.QICol(attr), rows, cut, sc)
}

// summarize computes the bounding box of a final partition, one column
// min/max sweep per attribute.
func summarize(t *dataset.Table, rows []int) MondrianBox {
	d := t.Schema.D()
	b := MondrianBox{Lo: make([]int32, d), Hi: make([]int32, d), Rows: rows[:len(rows):len(rows)]}
	for a := 0; a < d; a++ {
		b.Lo[a], b.Hi[a] = colMinMax(t.QICol(a), rows)
	}
	return b
}
