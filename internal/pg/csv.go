package pg

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// BoxLabel renders one attribute's generalized interval with the schema's
// value labels: the exact label for degenerate intervals, "*" for the full
// domain, "[lo-hi]" otherwise — the presentation of Table IIc.
func (p *Published) BoxLabel(row, attr int) string {
	a, c := p.Schema.QI[attr], p.cols
	lo, hi := c.Lo[attr*c.N+row], c.Hi[attr*c.N+row]
	switch {
	case lo == hi:
		return a.Label(lo)
	case lo == 0 && int(hi) == a.Size()-1:
		return "*"
	default:
		return fmt.Sprintf("[%s-%s]", a.Label(lo), a.Label(hi))
	}
}

// WriteCSV serializes D* in the shape of Table IIc: generalized QI labels,
// the observed sensitive value, and the G column. SourceRow is deliberately
// omitted — it is a simulation diagnostic, not part of the release.
func (p *Published) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, p.Schema.Width()+1)
	for _, a := range p.Schema.QI {
		header = append(header, a.Name)
	}
	header = append(header, p.Schema.Sensitive.Name, "G")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("pg: writing CSV header: %w", err)
	}
	c := p.cols
	for i := 0; i < c.N; i++ {
		rec := make([]string, 0, len(header))
		for j := range p.Schema.QI {
			rec = append(rec, p.BoxLabel(i, j))
		}
		rec = append(rec, p.Schema.Sensitive.Label(c.Value[i]), strconv.FormatInt(c.G[i], 10))
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("pg: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
