package dataset

import (
	"fmt"
	"math/rand"
)

// Table is a microdata relation D in struct-of-arrays form: one contiguous
// width-chosen Column per QI attribute (column j holds the code of QI
// attribute j for every row) plus one for the sensitive attribute. Each row
// describes one individual; the owner of row i is individual i unless Owners
// overrides the mapping (tuples have distinct owners, the standard
// assumption of Section II).
//
// The columnar layout is the perf core of the pipeline: Phase-1 perturbation
// writes one contiguous sensitive array, the grouping engine packs keys with
// one linear pass per QI column, and the kd partitioner's scans touch only
// the columns they split on. The row-major accessors (Row, QIVector) remain
// as views so existing callers keep working; they materialize copies and are
// not for hot loops.
type Table struct {
	Schema *Schema

	// cols[j] for j < d is QI attribute j; cols[d] is the sensitive column.
	cols []Column
	n    int

	// Owners optionally names the owner of each row with an external
	// individual ID. nil means owner(i) == i.
	Owners []int
}

// NewTable creates an empty table for the schema, choosing each column's
// element width from its attribute's domain size.
func NewTable(schema *Schema) *Table {
	t := &Table{Schema: schema, cols: make([]Column, schema.Width())}
	for j, a := range schema.QI {
		t.cols[j] = newColumn(a.Size())
	}
	t.cols[schema.D()] = newColumn(schema.Sensitive.Size())
	return t
}

// Len returns |D|.
func (t *Table) Len() int { return t.n }

// Append adds a row after validating it against the schema. The slice is
// copied into the columns; the caller keeps ownership.
func (t *Table) Append(row []int32) error {
	if len(row) != t.Schema.Width() {
		return fmt.Errorf("dataset: row has %d columns, schema wants %d", len(row), t.Schema.Width())
	}
	for j, a := range t.Schema.QI {
		if !a.Valid(row[j]) {
			return fmt.Errorf("dataset: row %d: QI %q code %d out of domain [0,%d)",
				t.Len(), a.Name, row[j], a.Size())
		}
	}
	if s := row[len(row)-1]; !t.Schema.Sensitive.Valid(s) {
		return fmt.Errorf("dataset: row %d: sensitive code %d out of domain [0,%d)",
			t.Len(), s, t.Schema.Sensitive.Size())
	}
	for j, v := range row {
		t.cols[j].append(v)
	}
	t.n++
	return nil
}

// MustAppend is Append but panics on error.
func (t *Table) MustAppend(row []int32) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// AppendLabels adds a row given attribute labels in schema order.
func (t *Table) AppendLabels(labels ...string) error {
	if len(labels) != t.Schema.Width() {
		return fmt.Errorf("dataset: got %d labels, schema wants %d", len(labels), t.Schema.Width())
	}
	row := make([]int32, len(labels))
	for j, a := range t.Schema.QI {
		c, err := a.Code(labels[j])
		if err != nil {
			return err
		}
		row[j] = c
	}
	c, err := t.Schema.Sensitive.Code(labels[len(labels)-1])
	if err != nil {
		return err
	}
	row[len(row)-1] = c
	for j, v := range row {
		t.cols[j].append(v)
	}
	t.n++
	return nil
}

// Row returns row i as a freshly allocated slice (a row-major view of the
// columnar storage). Not for hot loops — sweep columns instead.
func (t *Table) Row(i int) []int32 {
	row := make([]int32, len(t.cols))
	for j := range t.cols {
		row[j] = t.cols[j].Get(i)
	}
	return row
}

// QI returns the code of QI attribute j in row i.
func (t *Table) QI(i, j int) int32 { return t.cols[j].Get(i) }

// QICol returns QI attribute j's column. Read-only for shared tables.
func (t *Table) QICol(j int) *Column { return &t.cols[j] }

// SensitiveCol returns the sensitive column. Mutating it through the width
// accessors is the Phase-1 perturber's prerogative on its private clone;
// everyone else treats it as read-only.
func (t *Table) SensitiveCol() *Column { return &t.cols[t.Schema.D()] }

// QIVector returns the QI-vector t.v^q of row i (a copy).
func (t *Table) QIVector(i int) []int32 {
	d := t.Schema.D()
	v := make([]int32, d)
	for j := 0; j < d; j++ {
		v[j] = t.cols[j].Get(i)
	}
	return v
}

// Sensitive returns the sensitive code of row i (the paper's t.A^s).
func (t *Table) Sensitive(i int) int32 { return t.cols[t.Schema.D()].Get(i) }

// SetSensitive overwrites the sensitive code of row i.
func (t *Table) SetSensitive(i int, v int32) { t.cols[t.Schema.D()].Set(i, v) }

// Owner returns the individual ID owning row i.
func (t *Table) Owner(i int) int {
	if t.Owners == nil {
		return i
	}
	return t.Owners[i]
}

// Clone deep-copies the table: d+1 contiguous column copies plus owners —
// no per-row allocation.
func (t *Table) Clone() *Table {
	c := &Table{Schema: t.Schema, cols: make([]Column, len(t.cols)), n: t.n}
	for j := range t.cols {
		c.cols[j] = t.cols[j].clone()
	}
	if t.Owners != nil {
		c.Owners = append([]int(nil), t.Owners...)
	}
	return c
}

// Subset returns a new table containing the given rows (deep copies), with
// owner IDs preserved so the subset still names the same individuals.
func (t *Table) Subset(rows []int) *Table {
	s := &Table{Schema: t.Schema, cols: make([]Column, len(t.cols)), n: len(rows), Owners: make([]int, len(rows))}
	for j := range t.cols {
		s.cols[j] = t.cols[j].subset(rows)
	}
	for k, i := range rows {
		s.Owners[k] = t.Owner(i)
	}
	return s
}

// RandomSubset draws n distinct rows uniformly at random.
func (t *Table) RandomSubset(n int, rng *rand.Rand) (*Table, error) {
	if n < 0 || n > t.Len() {
		return nil, fmt.Errorf("dataset: subset of %d rows from table of %d", n, t.Len())
	}
	perm := rng.Perm(t.Len())
	return t.Subset(perm[:n]), nil
}

// Validate re-checks all rows against the schema; useful after external
// construction or CSV loading paths that bypass Append.
func (t *Table) Validate() error {
	if t.Owners != nil && len(t.Owners) != t.n {
		return fmt.Errorf("dataset: %d owner IDs for %d rows", len(t.Owners), t.n)
	}
	if len(t.cols) != t.Schema.Width() {
		return fmt.Errorf("dataset: table has %d columns, schema wants %d", len(t.cols), t.Schema.Width())
	}
	for j := range t.cols {
		if t.cols[j].Len() != t.n {
			return fmt.Errorf("dataset: column %d has %d values for %d rows", j, t.cols[j].Len(), t.n)
		}
	}
	for j, a := range t.Schema.QI {
		col := &t.cols[j]
		for i := 0; i < t.n; i++ {
			if !a.Valid(col.Get(i)) {
				return fmt.Errorf("dataset: row %d: QI %q code %d out of domain", i, a.Name, col.Get(i))
			}
		}
	}
	sens := t.SensitiveCol()
	for i := 0; i < t.n; i++ {
		if !t.Schema.Sensitive.Valid(sens.Get(i)) {
			return fmt.Errorf("dataset: row %d: sensitive code %d out of domain", i, sens.Get(i))
		}
	}
	return nil
}
