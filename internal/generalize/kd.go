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
	l := newKDLayout(t.Schema)
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	out := &KDResult{}
	kdRecurse(l, k, fullDomainBox(t.Schema), all, l.pack(t), spawnDepth, &kdScratch{}, out)
	return out, nil
}

// kdRecurse partitions one cell and appends its leaf cells, left to right,
// to out, spawning a goroutine for the left subtree while spawnDepth is
// positive. rows and words are the cell's row indices and packed QI codes
// (words[i*wpr:(i+1)*wpr] belongs to rows[i]); both are partitioned in
// place, so every cell's rows are a capacity-capped window of the one row
// array KDPartitionParallel allocates. Each goroutine owns its scratch.
func kdRecurse(l *kdLayout, k int, cell Box, rows []int, words []uint64, spawnDepth int, sc *kdScratch, out *KDResult) {
	attr, cut, nl, ok := chooseKDSplit(l, cell, words, k, sc)
	if !ok {
		out.Cells = append(out.Cells, cell)
		out.Rows = append(out.Rows, rows[:len(rows):len(rows)])
		return
	}
	l.partition(rows, words, nl, attr, cut, sc)
	lc, rc := splitBox(cell, attr, cut)
	lrows, lwords := rows[:nl:nl], words[:nl*l.wpr:nl*l.wpr]
	rrows, rwords := rows[nl:], words[nl*l.wpr:]
	if spawnDepth == 0 {
		kdRecurse(l, k, lc, lrows, lwords, 0, sc, out)
		kdRecurse(l, k, rc, rrows, rwords, 0, sc, out)
		return
	}
	// The left subtree appends to out on its own goroutine; the right one
	// collects apart and is appended once the left has finished.
	done := make(chan struct{})
	go func() {
		kdRecurse(l, k, lc, lrows, lwords, spawnDepth-1, &kdScratch{}, out)
		close(done)
	}()
	var right KDResult
	kdRecurse(l, k, rc, rrows, rwords, spawnDepth-1, sc, &right)
	<-done
	out.Cells = append(out.Cells, right.Cells...)
	out.Rows = append(out.Rows, right.Rows...)
}

// splitBox returns the two children of cell split on attr <= cut, carved
// from one allocation.
func splitBox(cell Box, attr int, cut int32) (lc, rc Box) {
	d := len(cell.Lo)
	s := make([]int32, 4*d)
	lc = Box{Lo: s[:d:d], Hi: s[d : 2*d : 2*d]}
	rc = Box{Lo: s[2*d : 3*d : 3*d], Hi: s[3*d:]}
	copy(lc.Lo, cell.Lo)
	copy(lc.Hi, cell.Hi)
	copy(rc.Lo, cell.Lo)
	copy(rc.Hi, cell.Hi)
	lc.Hi[attr] = cut
	rc.Lo[attr] = cut + 1
	return lc, rc
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

// kdLayout is the packed row form the kd recursion works on: each row's QI
// codes row-major in wpr uint64 words, attribute a in lane a%per of word
// a/per. Every lane has the width the schema's widest QI domain needs — 8,
// 16 or 32 bits — so the span search reads a cell's codes as one contiguous
// stream of words and compares all lanes of a word at once (SWAR).
type kdLayout struct {
	d, per, wpr int
	lane        uint      // lane width in bits
	laneMask    uint64    // one lane's bits, unshifted
	msb         uint64    // the high bit of every lane
	norm        []float64 // per attribute, domain size − 1: the span divisor
}

// LaneWidth is the bit width of one code lane when a schema's QI codes are
// packed into uint64 words: 8, 16 or 32, the narrowest that holds the
// widest QI domain's largest code.
func LaneWidth(s *dataset.Schema) uint {
	widest := 0
	for _, a := range s.QI {
		widest = max(widest, a.Size()-1)
	}
	lane := uint(8)
	for widest>>lane != 0 {
		lane *= 2
	}
	return lane
}

func newKDLayout(s *dataset.Schema) *kdLayout {
	lane := LaneWidth(s)
	l := &kdLayout{d: s.D(), per: 64 / int(lane), lane: lane, laneMask: 1<<lane - 1}
	l.wpr = max(1, (l.d+l.per-1)/l.per)
	l.msb = ^uint64(0) / l.laneMask << (lane - 1)
	l.norm = make([]float64, l.d)
	for j, a := range s.QI {
		l.norm[j] = float64(a.Size() - 1)
	}
	return l
}

// pack returns the table's QI codes in the layout, row i at words[i*wpr:].
func (l *kdLayout) pack(t *dataset.Table) []uint64 {
	words := make([]uint64, t.Len()*l.wpr)
	for a := 0; a < l.d; a++ {
		col, at, shift := t.QICol(a), words[a/l.per:], uint(a%l.per)*l.lane
		if u8 := col.U8(); u8 != nil {
			packLane(u8, at, l.wpr, shift)
		} else {
			packLane(col.I32(), at, l.wpr, shift)
		}
	}
	return words
}

func packLane[T uint8 | int32](vals []T, words []uint64, stride int, shift uint) {
	for i, v := range vals {
		words[i*stride] |= uint64(uint32(v)) << shift
	}
}

// code returns attribute a's code in the row whose words begin at row.
func (l *kdLayout) code(row []uint64, a int) int32 {
	return int32(row[a/l.per] >> (uint(a%l.per) * l.lane) & l.laneMask)
}

// minMax sets mn and mx, wpr words each, to the lane-wise unsigned minimum
// and maximum over the rows in words, which must hold at least one row.
func (l *kdLayout) minMax(words, mn, mx []uint64) {
	h, sh, m, wpr := l.msb, l.lane-1, l.laneMask, l.wpr
	for w := range mn {
		lo, hi := words[w], words[w]
		for i := w + wpr; i < len(words); i += wpr {
			x := words[i]
			hi, lo = laneMax(hi, x, h, sh, m), laneMin(lo, x, h, sh, m)
		}
		mn[w], mx[w] = lo, hi
	}
}

// laneGE returns a word whose lanes are all ones where a's lane is at
// least b's as an unsigned integer and zero elsewhere. h holds the high bit
// of every lane, sh is the lane width less one and m one lane's bits. The
// comparison is read off each lane's high bit of
// (a&^b) | (^(a^b) & ((a|h)−(b&^h))): the subtraction compares the low bits
// of every lane at once without a borrow crossing lanes, and the other two
// terms settle the lanes whose high bits differ.
func laneGE(a, b, h uint64, sh uint, m uint64) uint64 {
	return ((a&^b | ^(a^b)&((a|h)-(b&^h))) & h >> sh) * m
}

// laneMax and laneMin are the lane-wise unsigned maximum and minimum.
func laneMax(a, b, h uint64, sh uint, m uint64) uint64 {
	ge := laneGE(a, b, h, sh, m)
	return a&ge | b&^ge
}

func laneMin(a, b, h uint64, sh uint, m uint64) uint64 {
	ge := laneGE(a, b, h, sh, m)
	return b&ge | a&^ge
}

// partition splits the cell's rows and their words in place on attr <= cut,
// of which nl rows are known to lie left, preserving order on both sides:
// the left side becomes the prefix. The right side passes through sc's
// spill buffers, which grow to the largest right side the goroutine has
// seen (about half its rows, since cuts are medians), so the split
// allocates nothing once they have grown. The loop has no branch on the
// code: each row is written to both its left slot and its spill slot, and
// only the side it belongs to advances. Writing slot li while reading row i
// is safe because li <= i.
func (l *kdLayout) partition(rows []int, words []uint64, nl, attr int, cut int32, sc *kdScratch) {
	wpr, w, shift, m := l.wpr, attr/l.per, uint(attr%l.per)*l.lane, l.laneMask
	// One spare slot: the spill write of a left row past the last right one.
	nr := len(rows) - nl
	spillRows, spillWords := grow(sc.spillRows, nr+1), grow(sc.spillWords, (nr+1)*wpr)
	sc.spillRows, sc.spillWords = spillRows, spillWords
	li, ri := 0, 0
	for i, r := range rows {
		row := words[i*wpr : i*wpr+wpr]
		left := 0
		if int32(row[w]>>shift&m) <= cut {
			left = 1
		}
		rows[li], spillRows[ri] = r, r
		for x, v := range row {
			words[li*wpr+x], spillWords[ri*wpr+x] = v, v
		}
		li += left
		ri += 1 - left
	}
	copy(rows[nl:], spillRows[:nr])
	copy(words[nl*wpr:], spillWords[:nr*wpr])
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
	spans      []kdSpan
	mn, mx     []uint64
	hist       []int
	vals       []int32
	spillRows  []int
	spillWords []uint64
}

// chooseKDSplit picks the widest-spread attribute admitting a median split
// with both sides >= k inside the current cell, whose packed rows are
// words, and returns the split's left-side row count with it. Attributes
// are ranked by normalized span of values present, and the first (widest)
// one admitting a split wins. One SWAR pass over the cell's words yields
// every attribute's span; the median and both candidate cuts' left-side
// counts come from one counting pass (medianCounts), not a sort.
func chooseKDSplit(l *kdLayout, cell Box, words []uint64, k int, sc *kdScratch) (attr int, cut int32, nl int, ok bool) {
	n := len(words) / l.wpr
	if n < 2*k {
		return 0, 0, 0, false
	}
	sc.mn, sc.mx = grow(sc.mn, l.wpr), grow(sc.mx, l.wpr)
	l.minMax(words, sc.mn, sc.mx)
	spans := sc.spans[:0]
	for a := 0; a < l.d; a++ {
		lo, hi := l.code(sc.mn, a), l.code(sc.mx, a)
		if hi > lo {
			spans = append(spans, kdSpan{a, float64(hi-lo) / l.norm[a], lo, hi})
		}
	}
	sc.spans = spans
	// Tied widths must rank as sort.Slice ranks them, or published cells
	// change; slices.SortFunc runs the same pdqsort without its reflective
	// swapper.
	slices.SortFunc(spans, func(x, y kdSpan) int { return cmp.Compare(y.width, x.width) })
	for _, s := range spans {
		m, below, atOrBelow := l.medianCounts(words, n, s, sc)
		for c, nl := range [2]int{below, atOrBelow} {
			cut := m - 1 + int32(c)
			if cut < cell.Lo[s.attr] || cut >= cell.Hi[s.attr] {
				continue
			}
			if nl >= k && n-nl >= k {
				return s.attr, cut, nl, true
			}
		}
	}
	return 0, 0, 0, false
}

// medianCounts returns the median code m of the span's attribute over the n
// rows in words — the element at index n/2 of the ascending codes — and how
// many rows lie at or below m-1 and at or below m. Spans up to
// histogramSpan codes (every SAL domain) are counted in one histogram pass;
// wider ones sort a gathered copy, so the buffer never grows with the
// domain.
func (l *kdLayout) medianCounts(words []uint64, n int, s kdSpan, sc *kdScratch) (m int32, below, atOrBelow int) {
	mid := n / 2
	wpr, w, shift := l.wpr, s.attr/l.per, uint(s.attr%l.per)*l.lane
	if span := int(s.hi-s.lo) + 1; span <= max(histogramSpan, n) {
		hist := grow(sc.hist, span)
		sc.hist = hist
		clear(hist)
		for i := w; i < len(words); i += wpr {
			hist[int32(words[i]>>shift&l.laneMask)-s.lo]++
		}
		for v, c := range hist {
			if below+c > mid {
				return s.lo + int32(v), below, below + c
			}
			below += c
		}
		panic("generalize: histogram holds fewer codes than rows")
	}
	vals := grow(sc.vals, n)
	sc.vals = vals
	for i := range vals {
		vals[i] = int32(words[i*wpr+w] >> shift & l.laneMask)
	}
	slices.Sort(vals)
	m = vals[mid]
	below, _ = slices.BinarySearch(vals, m)
	atOrBelow, _ = slices.BinarySearch(vals, m+1)
	return m, below, atOrBelow
}

// histogramSpan is the widest code span medianCounts counts in a histogram
// regardless of the row count: clearing and scanning 256 counters costs less
// than sorting the rows of a small cell.
const histogramSpan = 256

// grow returns buf resized to n, reallocating only when its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
