package dataset

// Column is one attribute's value array in the struct-of-arrays table
// layout: a single contiguous allocation holding row i's code at index i.
// The element width is chosen per attribute from its domain size — codes of
// a domain with at most 256 values are stored as bytes, anything wider as
// int32 — so a column sweep moves the minimum number of cache lines the
// domain permits.
//
// Exactly one of the two backing slices is non-nil for a column owned by a
// Table. Hot paths branch once on the width (U8 returning non-nil) and run a
// generic sweep over the raw slice; everything else goes through Get, which
// the compiler inlines.
type Column struct {
	u8  []uint8
	i32 []int32
}

// narrowLimit is the largest domain size stored as bytes.
const narrowLimit = 256

// newColumn returns an empty column sized for a domain of `size` codes.
func newColumn(size int) Column {
	if size <= narrowLimit {
		return Column{u8: []uint8{}}
	}
	return Column{i32: []int32{}}
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.u8 != nil {
		return len(c.u8)
	}
	return len(c.i32)
}

// Get returns the code at row i.
func (c *Column) Get(i int) int32 {
	if c.u8 != nil {
		return int32(c.u8[i])
	}
	return c.i32[i]
}

// Set overwrites the code at row i. The caller is responsible for the value
// being inside the attribute's domain (like Table.SetSensitive always was).
func (c *Column) Set(i int, v int32) {
	if c.u8 != nil {
		c.u8[i] = uint8(v)
		return
	}
	c.i32[i] = v
}

// U8 returns the byte backing of a narrow column, or nil for a wide one.
// Mutating the returned slice mutates the table; only owners of a private
// clone (e.g. the Phase-1 perturber) may do so.
func (c *Column) U8() []uint8 { return c.u8 }

// I32 returns the int32 backing of a wide column, or nil for a narrow one.
// Same mutation rule as U8.
func (c *Column) I32() []int32 { return c.i32 }

// append adds one value, assuming it fits the column's width.
func (c *Column) append(v int32) {
	if c.u8 != nil {
		c.u8 = append(c.u8, uint8(v))
		return
	}
	c.i32 = append(c.i32, v)
}

// clone deep-copies the column.
func (c *Column) clone() Column {
	if c.u8 != nil {
		return Column{u8: append([]uint8{}, c.u8...)}
	}
	return Column{i32: append([]int32{}, c.i32...)}
}

// subset gathers the given rows into a fresh column.
func (c *Column) subset(rows []int) Column {
	if c.u8 != nil {
		out := make([]uint8, len(rows))
		for k, i := range rows {
			out[k] = c.u8[i]
		}
		return Column{u8: out}
	}
	out := make([]int32, len(rows))
	for k, i := range rows {
		out[k] = c.i32[i]
	}
	return Column{i32: out}
}
