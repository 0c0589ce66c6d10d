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
		lo, hi := t.QI(rows[0], a), t.QI(rows[0], a)
		for _, i := range rows {
			lo, hi = min(lo, t.QI(i, a)), max(hi, t.QI(i, a))
		}
		if hi > lo {
			spans = append(spans, span{a, float64(hi-lo) / float64(t.Schema.QI[a].Size()-1)})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].width > spans[j].width })
	vals := make([]int32, len(rows))
	for _, s := range spans {
		for i, r := range rows {
			vals[i] = t.QI(r, s.attr)
		}
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

// kdRefTable draws a table whose shape stresses the split search: 1–20 QI
// attributes (so the span ranking runs both below and above sort.Slice's
// insertion-sort cutoff, and rows pack into several words), repeated domain
// sizes (tied widths), one-code domains, domains whose codes set a lane's
// high bit in 8- and 16-bit lanes, wide domains that force 16- and 32-bit
// lanes and spans past the histogram (the sorted fallback of medianCounts),
// and skewed or concentrated values (duplicate medians, one-code spans
// inside a cell).
func kdRefTable(rng *rand.Rand) *dataset.Table {
	sizes := []int{1, 2, 3, 8, 8, 16, 74, 200, 300, 1000, 40_000, 70_000}
	d := 1 + rng.Intn(20)
	attrs := make([]*dataset.Attribute, d)
	size := make([]int, d)
	for j := range attrs {
		size[j] = sizes[rng.Intn(len(sizes))]
		attrs[j] = kdRefAttr(j, size[j])
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

// kdRefAttrs caches the integer attributes kdRefTable draws: the wide
// domains cost a label per code to build.
var kdRefAttrs = map[[2]int]*dataset.Attribute{}

func kdRefAttr(j, size int) *dataset.Attribute {
	a, ok := kdRefAttrs[[2]int{j, size}]
	if !ok {
		a = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, size-1)
		kdRefAttrs[[2]int{j, size}] = a
	}
	return a
}

// TestKDPartitionMatchesReference pins the counting split and the in-place
// partition to the sort-based recursion they replaced: equal cells and equal
// row lists, serial and spawned, on random tables. Every fourth trial sets k
// near n/2, where at most one split fits.
func TestKDPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		tbl := kdRefTable(rng)
		k := 1 + rng.Intn(8)
		if trial%4 == 0 {
			k = max(1, tbl.Len()/2-rng.Intn(2))
		}
		if tbl.Len() < k {
			continue
		}
		if err := checkKDAgainstReference(tbl, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// checkKDAgainstReference compares KDPartitionParallel, serial and spawned,
// with refKDPartition.
func checkKDAgainstReference(tbl *dataset.Table, k int) error {
	want := refKDPartition(tbl, k)
	for _, depth := range []int{0, 2} {
		got, err := KDPartitionParallel(tbl, k, depth)
		if err != nil {
			return err
		}
		if len(got.Cells) != len(want.Cells) {
			return fmt.Errorf("depth %d: %d cells, reference %d", depth, len(got.Cells), len(want.Cells))
		}
		for i := range want.Cells {
			if !got.Cells[i].Equal(want.Cells[i]) || !slices.Equal(got.Rows[i], want.Rows[i]) {
				return fmt.Errorf("depth %d: cell %d differs: %v %v, reference %v %v",
					depth, i, got.Cells[i], got.Rows[i], want.Cells[i], want.Rows[i])
			}
		}
	}
	return nil
}

// FuzzKDPartition decodes the input into a small table — 1–10 QI
// attributes over 2–300 codes, up to 512 rows — and a k in 1–8, and
// requires the packed kd recursion, serial and spawned, to reproduce the
// reference recursion exactly. The seed corpus is in testdata/fuzz.
func FuzzKDPartition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 1 + int(data[0])%10
		k := 1 + int(data[1])%8
		data = data[2:]
		if len(data) < d {
			return
		}
		attrs := make([]*dataset.Attribute, d)
		size := make([]int, d)
		for j := range attrs {
			size[j] = 2 + int(data[j])%128 + int(data[j]>>7)*171 // 2–129, or 173–300
			attrs[j] = kdRefAttr(j, size[j])
		}
		data = data[d:]
		tbl := dataset.NewTable(dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1")))
		row := make([]int32, d+1)
		for i := 0; i+d <= len(data) && i/d < 512; i += d {
			for j := 0; j < d; j++ {
				// Each byte picks a code, scaled across the whole domain.
				row[j] = int32(int(data[i+j]) * (size[j] - 1) / 255)
			}
			row[d] = int32(data[i] & 1)
			tbl.MustAppend(row)
		}
		if tbl.Len() < k {
			return
		}
		if err := checkKDAgainstReference(tbl, k); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChooseKDSplitAllocs budgets the split search: with its scratch warm it
// allocates nothing.
func TestChooseKDSplitAllocs(t *testing.T) {
	tbl, _ := benchGenTable(20_000)
	l := newKDLayout(tbl.Schema)
	words := l.pack(tbl)
	cell := fullDomainBox(tbl.Schema)
	sc := &kdScratch{}
	if _, _, _, ok := chooseKDSplit(l, cell, words, 6, sc); !ok {
		t.Fatal("no split on the full table")
	}
	if n := testing.AllocsPerRun(20, func() { chooseKDSplit(l, cell, words, 6, sc) }); n > 0 {
		t.Fatalf("chooseKDSplit: %v allocs per call with warm scratch, budget 0", n)
	}
}
