package pg

import (
	"fmt"

	"pgpub/internal/generalize"
)

// RowColumns holds the rows of D*, the one form a Published stores them in:
// one contiguous array per logical field, with the box bounds dim-major
// (Lo[j*N+i] is row i's lower bound along QI attribute j). It is also the
// layout the snapshot format stores rows in, so a loaded or mmap'd snapshot
// adopts the arrays as they are, and every consumer — the scan estimators,
// the aggregate collapse, the validator, the miners, the CSV writer —
// sweeps one cache-linear stream per field instead of a heap box per row.
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

// newRowColumns allocates zeroed columns for n rows of d dimensions.
func newRowColumns(n, d int) *RowColumns {
	return &RowColumns{
		N:         n,
		D:         d,
		Lo:        make([]int32, d*n),
		Hi:        make([]int32, d*n),
		Value:     make([]int32, n),
		G:         make([]int64, n),
		SourceRow: make([]int64, n),
	}
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

// Row copies row i out as a Row value (fresh bound slices), the one-tuple
// view FindCrucial hands the linking attack.
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

// Columns returns the rows of D*. Callers must treat the arrays as
// read-only.
func (p *Published) Columns() *RowColumns { return p.cols }

// FromColumns builds a publication around columnar rows; it is the one
// constructor every publication goes through (Publish, ReadCSV, Merge and
// the snapshot decoder) and the one shape check. meta supplies the
// publication metadata (Schema, Algorithm, Recoding, P, K); any rows it
// carries are replaced. The columns are adopted, not copied, so a load (or
// an mmap) stays O(columns adopted), not O(rows rebuilt).
func FromColumns(meta Published, cols *RowColumns) (*Published, error) {
	if meta.Schema == nil {
		return nil, fmt.Errorf("pg: columnar publication needs a schema")
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
