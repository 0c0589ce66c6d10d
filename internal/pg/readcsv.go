package pg

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pgpub/internal/dataset"
)

// ReadCSV loads a publication written by WriteCSV back into a Published
// value, so downstream consumers (query answering, mining) can work from the
// released file alone. The retention probability is publication metadata the
// publisher announces alongside the release (it is required for any
// reconstruction-based use); pass it explicitly. K is recovered as the
// smallest G in the file.
//
// Generalized QI labels are parsed as: "*" (full domain), an exact attribute
// label (degenerate interval), or "[lo-hi]" with lo and hi attribute labels.
// For interval parsing to be unambiguous, QI attribute labels should not
// themselves contain "-"; when they do, every split position is tried until
// both halves resolve.
func ReadCSV(schema *dataset.Schema, r io.Reader, p float64) (*Published, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("pg: retention probability %v outside [0,1]", p)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.Width() + 1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("pg: reading CSV header: %w", err)
	}
	want := append(append([]string(nil), schema.ColumnNames()[:schema.D()]...),
		schema.Sensitive.Name, "G")
	for j := range want {
		if header[j] != want[j] {
			return nil, fmt.Errorf("pg: CSV column %d is %q, want %q", j, header[j], want[j])
		}
	}
	var recs [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pg: reading CSV line %d: %w", len(recs)+2, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("pg: CSV contains no published tuples")
	}
	n, d := len(recs), schema.D()
	c := newRowColumns(n, d)
	k := 0
	for i, rec := range recs {
		line := i + 2
		for j, a := range schema.QI {
			lo, hi, err := parseBoxLabel(rec[j], a)
			if err != nil {
				return nil, fmt.Errorf("pg: CSV line %d, column %q: %w", line, a.Name, err)
			}
			c.Lo[j*n+i], c.Hi[j*n+i] = lo, hi
		}
		v, err := schema.Sensitive.Code(rec[d])
		if err != nil {
			return nil, fmt.Errorf("pg: CSV line %d: %w", line, err)
		}
		g, err := strconv.Atoi(rec[d+1])
		if err != nil || g < 1 {
			return nil, fmt.Errorf("pg: CSV line %d: bad G %q", line, rec[d+1])
		}
		if k == 0 || g < k {
			k = g
		}
		c.Value[i], c.G[i], c.SourceRow[i] = v, int64(g), -1
	}
	pub, err := FromColumns(Published{Schema: schema, Algorithm: KD, P: p, K: k}, c)
	if err != nil {
		return nil, err
	}
	if err := pub.Validate(); err != nil {
		return nil, fmt.Errorf("pg: loaded publication invalid: %w", err)
	}
	return pub, nil
}

// parseBoxLabel inverts BoxLabel for one attribute.
func parseBoxLabel(s string, a *dataset.Attribute) (lo, hi int32, err error) {
	if s == "*" {
		return 0, int32(a.Size() - 1), nil
	}
	if c, err := a.Code(s); err == nil {
		return c, c, nil
	}
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("unknown label %q", s)
	}
	inner := s[1 : len(s)-1]
	// Try every '-' split position until both halves resolve to labels.
	for i := 0; i < len(inner); i++ {
		if inner[i] != '-' {
			continue
		}
		l, errL := a.Code(inner[:i])
		h, errH := a.Code(inner[i+1:])
		if errL == nil && errH == nil {
			if l > h {
				return 0, 0, fmt.Errorf("inverted interval %q", s)
			}
			return l, h, nil
		}
	}
	return 0, 0, fmt.Errorf("cannot parse interval %q", s)
}
