package pg

import (
	"fmt"

	"pgpub/internal/generalize"
)

// RowColumns is the struct-of-arrays form of a publication's rows: one
// contiguous array per logical field, with the box bounds dim-major
// (Lo[j*N+i] is row i's lower bound along QI attribute j). It is the layout
// the snapshot format stores rows in and the layout columnar consumers — the
// aggregate collapse, the publication validator — sweep, one cache-linear
// stream per field instead of a heap box per row.
//
// A RowColumns is a value view: consumers must treat the arrays as
// read-only. In particular the arrays may alias a read-only mmap'd snapshot,
// where a write faults.
type RowColumns struct {
	// N is the row count, D the QI dimensionality.
	N, D int
	// Lo and Hi are the generalized box bounds, dim-major, each D*N long.
	Lo, Hi []int32
	// Value holds the observed (possibly perturbed) sensitive values.
	Value []int32
	// G holds the source QI-group sizes.
	G []int64
	// SourceRow holds the diagnostic microdata row of each tuple, -1 when
	// unknown (a real release omits it; see Row.SourceRow).
	SourceRow []int64
}

// Check validates the arrays' shape: every field N long and the bounds D*N.
func (c *RowColumns) Check() error {
	if c.N < 0 || c.D < 0 {
		return fmt.Errorf("pg: row columns with N=%d, D=%d", c.N, c.D)
	}
	if len(c.Lo) != c.D*c.N || len(c.Hi) != c.D*c.N {
		return fmt.Errorf("pg: row columns bounds have %d/%d values, want %d", len(c.Lo), len(c.Hi), c.D*c.N)
	}
	if len(c.Value) != c.N || len(c.G) != c.N || len(c.SourceRow) != c.N {
		return fmt.Errorf("pg: row columns fields have %d/%d/%d values, want %d",
			len(c.Value), len(c.G), len(c.SourceRow), c.N)
	}
	return nil
}

// Row materializes row i as a row-major Row (fresh bound slices).
func (c *RowColumns) Row(i int) Row {
	box := generalize.Box{Lo: make([]int32, c.D), Hi: make([]int32, c.D)}
	for j := 0; j < c.D; j++ {
		box.Lo[j] = c.Lo[j*c.N+i]
		box.Hi[j] = c.Hi[j*c.N+i]
	}
	return Row{Box: box, Value: c.Value[i], G: int(c.G[i]), SourceRow: int(c.SourceRow[i])}
}

// sameBox reports whether rows i and k have the same box.
func (c *RowColumns) sameBox(i, k int) bool {
	for j := 0; j < c.D; j++ {
		if c.Lo[j*c.N+i] != c.Lo[j*c.N+k] || c.Hi[j*c.N+i] != c.Hi[j*c.N+k] {
			return false
		}
	}
	return true
}

// covers reports whether row i's box generalizes the raw QI vector vq.
func (c *RowColumns) covers(i int, vq []int32) bool {
	for j := range vq {
		v := vq[j]
		if v < c.Lo[j*c.N+i] || v > c.Hi[j*c.N+i] {
			return false
		}
	}
	return true
}

// Columns returns the publication's rows in struct-of-arrays form: the
// installed columnar view when the publication was built from one
// (FromColumns), otherwise a fresh conversion of Rows. Callers must treat
// the arrays as read-only.
func (p *Published) Columns() *RowColumns {
	if p.Rows == nil && p.cols != nil {
		return p.cols
	}
	d, n := p.Schema.D(), len(p.Rows)
	c := &RowColumns{
		N:         n,
		D:         d,
		Lo:        make([]int32, d*n),
		Hi:        make([]int32, d*n),
		Value:     make([]int32, n),
		G:         make([]int64, n),
		SourceRow: make([]int64, n),
	}
	for i := range p.Rows {
		r := &p.Rows[i]
		for j := 0; j < d; j++ {
			c.Lo[j*n+i] = r.Box.Lo[j]
			c.Hi[j*n+i] = r.Box.Hi[j]
		}
		c.Value[i] = r.Value
		c.G[i] = int64(r.G)
		c.SourceRow[i] = int64(r.SourceRow)
	}
	return c
}

// FromColumns builds a publication around a columnar row view without
// materializing []Row — the serving path from a snapshot never needs the
// row-major form, so a load (or an mmap) stays O(columns adopted), not
// O(rows rebuilt). meta supplies the publication metadata (Schema,
// Algorithm, Recoding, P, K); its Rows must be nil. The view is adopted,
// not copied. Consumers that do need row-major rows (the attack simulators)
// call EnsureRows first.
func FromColumns(meta Published, cols *RowColumns) (*Published, error) {
	if meta.Schema == nil {
		return nil, fmt.Errorf("pg: columnar publication needs a schema")
	}
	if meta.Rows != nil {
		return nil, fmt.Errorf("pg: columnar publication must not also carry rows")
	}
	if err := cols.Check(); err != nil {
		return nil, err
	}
	if cols.D != meta.Schema.D() {
		return nil, fmt.Errorf("pg: row columns have %d dims for a %d-attribute schema", cols.D, meta.Schema.D())
	}
	p := meta
	p.cols = cols
	return &p, nil
}

// EnsureRows materializes p.Rows from the installed columnar view when the
// publication was built by FromColumns; it is a no-op when Rows already
// exist. It returns the rows for convenience.
func (p *Published) EnsureRows() []Row {
	if p.Rows == nil && p.cols != nil && p.cols.N > 0 {
		rows := make([]Row, p.cols.N)
		for i := range rows {
			rows[i] = p.cols.Row(i)
		}
		p.Rows = rows
	}
	return p.Rows
}
