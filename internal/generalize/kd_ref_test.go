package generalize

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pgpub/internal/dataset"
)

// refKDPartition is the kd recursion as it was before the counting split: a
// sort of every node's codes to find the median, a counting loop per
// candidate cut, and left/right row slices grown by append. Kept test-only
// as the reference the counting implementation must reproduce exactly.
func refKDPartition(t *dataset.Table, k int) *KDResult {
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	return refKDRecurse(t, k, fullDomainBox(t.Schema), all)
}

func refKDRecurse(t *dataset.Table, k int, cell Box, rows []int) *KDResult {
	attr, cut, ok := refChooseKDSplit(t, cell, rows, k)
	if !ok {
		return &KDResult{Cells: []Box{cell}, Rows: [][]int{rows}}
	}
	var left, right []int
	for _, i := range rows {
		if t.QI(i, attr) <= cut {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	lc := Box{Lo: append([]int32(nil), cell.Lo...), Hi: append([]int32(nil), cell.Hi...)}
	rc := Box{Lo: append([]int32(nil), cell.Lo...), Hi: append([]int32(nil), cell.Hi...)}
	lc.Hi[attr] = cut
	rc.Lo[attr] = cut + 1
	lres := refKDRecurse(t, k, lc, left)
	rres := refKDRecurse(t, k, rc, right)
	return &KDResult{
		Cells: append(lres.Cells, rres.Cells...),
		Rows:  append(lres.Rows, rres.Rows...),
	}
}

func refChooseKDSplit(t *dataset.Table, cell Box, rows []int, k int) (attr int, cut int32, ok bool) {
	if len(rows) < 2*k {
		return 0, 0, false
	}
	d := t.Schema.D()
	type span struct {
		attr  int
		width float64
	}
	spans := make([]span, 0, d)
	for a := 0; a < d; a++ {
		lo, hi := colMinMax(t.QICol(a), rows)
		if hi > lo {
			spans = append(spans, span{a, float64(hi-lo) / float64(t.Schema.QI[a].Size()-1)})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].width > spans[j].width })
	vals := make([]int32, len(rows))
	for _, s := range spans {
		colGather(t.QICol(s.attr), rows, vals)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		m := vals[len(vals)/2]
		for _, c := range []int32{m - 1, m} {
			if c < cell.Lo[s.attr] || c >= cell.Hi[s.attr] {
				continue
			}
			nl := 0
			for _, v := range vals {
				if v <= c {
					nl++
				}
			}
			if nl >= k && len(rows)-nl >= k {
				return s.attr, c, true
			}
		}
	}
	return 0, 0, false
}

// kdRefTable draws a table whose shape stresses the split search: 1–15 QI
// attributes (so the span ranking runs both below and above sort.Slice's
// insertion-sort cutoff), repeated domain sizes (tied widths), one-code and
// wide int32 domains (the sorted fallback of medianCounts), and skewed or
// concentrated values (duplicate medians, one-code spans inside a cell).
func kdRefTable(rng *rand.Rand) *dataset.Table {
	sizes := []int{1, 2, 3, 8, 8, 16, 74, 300, 1000}
	d := 1 + rng.Intn(15)
	attrs := make([]*dataset.Attribute, d)
	size := make([]int, d)
	for j := range attrs {
		size[j] = sizes[rng.Intn(len(sizes))]
		attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, size[j]-1)
	}
	tbl := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1")))
	n := 1 + rng.Intn(400)
	shape := rng.Intn(3)
	row := make([]int32, d+1)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			var v int
			switch shape {
			case 0:
				v = rng.Intn(size[j])
			case 1:
				v = int(rng.ExpFloat64() * float64(size[j]) / 6)
			default:
				v = size[j]/2 + rng.Intn(2)
			}
			row[j] = int32(min(v, size[j]-1))
		}
		row[d] = int32(rng.Intn(2))
		tbl.MustAppend(row)
	}
	return tbl
}

// TestKDPartitionMatchesReference pins the counting split and the in-place
// partition to the sort-based recursion they replaced: equal cells and equal
// row lists, serial and spawned, on random tables.
func TestKDPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		tbl := kdRefTable(rng)
		k := 1 + rng.Intn(8)
		if tbl.Len() < k {
			continue
		}
		want := refKDPartition(tbl, k)
		for _, depth := range []int{0, 2} {
			got, err := KDPartitionParallel(tbl, k, depth)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Cells) != len(want.Cells) {
				t.Fatalf("trial %d depth %d: %d cells, reference %d", trial, depth, len(got.Cells), len(want.Cells))
			}
			for i := range want.Cells {
				if !got.Cells[i].Equal(want.Cells[i]) || !slices.Equal(got.Rows[i], want.Rows[i]) {
					t.Fatalf("trial %d depth %d: cell %d differs: %v %v, reference %v %v",
						trial, depth, i, got.Cells[i], got.Rows[i], want.Cells[i], want.Rows[i])
				}
			}
		}
	}
}

// TestChooseKDSplitAllocs budgets the split search: with its scratch warm it
// allocates nothing.
func TestChooseKDSplitAllocs(t *testing.T) {
	tbl, _ := benchGenTable(20_000)
	rows := make([]int, tbl.Len())
	for i := range rows {
		rows[i] = i
	}
	cell := fullDomainBox(tbl.Schema)
	sc := &kdScratch{}
	if _, _, ok := chooseKDSplit(tbl, cell, rows, 6, sc); !ok {
		t.Fatal("no split on the full table")
	}
	if n := testing.AllocsPerRun(20, func() { chooseKDSplit(tbl, cell, rows, 6, sc) }); n > 0 {
		t.Fatalf("chooseKDSplit: %v allocs per call with warm scratch, budget 0", n)
	}
}
