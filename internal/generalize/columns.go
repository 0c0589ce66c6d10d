package generalize

import (
	"slices"

	"pgpub/internal/dataset"
)

// Column-sweep primitives of the kd partitioner. Each
// dispatches once on the column's element width and runs a generic loop over
// the raw backing slice, so a scan over a row subset is a single gather from
// one contiguous array instead of a row-slice dereference per element.

// colMinMax returns the min and max code of the column over the given rows.
// rows must be non-empty.
func colMinMax(c *dataset.Column, rows []int) (lo, hi int32) {
	if u8 := c.U8(); u8 != nil {
		return minMaxGather(u8, rows)
	}
	return minMaxGather(c.I32(), rows)
}

func minMaxGather[T uint8 | int32](vals []T, rows []int) (lo, hi int32) {
	l, h := vals[rows[0]], vals[rows[0]]
	for _, i := range rows[1:] {
		v := vals[i]
		if v < l {
			l = v
		}
		if v > h {
			h = v
		}
	}
	return int32(l), int32(h)
}

// medianCounts returns the median code m of the column over rows — the
// element at index len(rows)/2 of the ascending codes — and how many rows lie
// at or below m-1 and at or below m. [lo, hi] must bound the codes, as
// colMinMax reports them. Spans up to histogramSpan codes (every SAL domain)
// are counted in one histogram pass; wider ones sort a gathered copy, so the
// buffer never grows with the domain.
func medianCounts(c *dataset.Column, rows []int, lo, hi int32, sc *kdScratch) (m int32, below, atOrBelow int) {
	mid := len(rows) / 2
	if span := int(hi-lo) + 1; span <= max(histogramSpan, len(rows)) {
		hist := grow(sc.hist, span)
		sc.hist = hist
		clear(hist)
		if u8 := c.U8(); u8 != nil {
			countCodes(u8, rows, lo, hist)
		} else {
			countCodes(c.I32(), rows, lo, hist)
		}
		for v, n := range hist {
			if below+n > mid {
				return lo + int32(v), below, below + n
			}
			below += n
		}
		panic("generalize: histogram holds fewer codes than rows")
	}
	vals := grow(sc.vals, len(rows))
	sc.vals = vals
	colGather(c, rows, vals)
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

func countCodes[T uint8 | int32](vals []T, rows []int, lo int32, hist []int) {
	for _, i := range rows {
		hist[int32(vals[i])-lo]++
	}
}

// grow returns buf resized to n, reallocating only when its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// colGather copies the column's codes at the given rows into dst (len(dst)
// must be len(rows)).
func colGather(c *dataset.Column, rows []int, dst []int32) {
	if u8 := c.U8(); u8 != nil {
		for i, r := range rows {
			dst[i] = int32(u8[r])
		}
		return
	}
	i32 := c.I32()
	for i, r := range rows {
		dst[i] = i32[r]
	}
}

// colPartition splits rows in place on column value <= cut, preserving
// order on both sides: left is rows' prefix, right its suffix. The right
// side passes through sc's spill buffer, which grows to the largest right
// side the goroutine has seen (about half its rows, since cuts are medians),
// so the split allocates nothing once the buffer has grown. left is
// capacity-capped so an append to it cannot overwrite right.
func colPartition(c *dataset.Column, rows []int, cut int32, sc *kdScratch) (left, right []int) {
	var nl int
	if u8 := c.U8(); u8 != nil {
		nl, sc.spill = partitionGather(u8, rows, cut, sc.spill[:0])
	} else {
		nl, sc.spill = partitionGather(c.I32(), rows, cut, sc.spill[:0])
	}
	return rows[:nl:nl], rows[nl:]
}

// partitionGather compacts the rows with value <= cut to the front of rows
// and copies the others, in order, after them, through spill. It returns
// the left count and the grown spill. Writing rows[nl] while reading
// rows[i] is safe because nl <= i.
func partitionGather[T uint8 | int32](vals []T, rows []int, cut int32, spill []int) (int, []int) {
	nl := 0
	for _, i := range rows {
		if int32(vals[i]) <= cut {
			rows[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(rows[nl:], spill)
	return nl, spill
}
