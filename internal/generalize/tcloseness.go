package generalize

import (
	"fmt"
	"math"

	"pgpub/internal/dataset"
)

// This file implements t-closeness (Li, Li, Venkatasubramanian, ICDE'07
// [14]), the strongest of the distributional generalization principles the
// paper surveys: every QI-group's sensitive-value distribution must be
// within distance t of the whole table's. Ordered domains use the Earth
// Mover's Distance with unit ground distance between adjacent codes
// (normalized by domain size - 1); unordered domains use total variation
// (equal ground distances).

// tablePDF returns the whole table's sensitive distribution.
func tablePDF(t *dataset.Table) []float64 {
	pdf := make([]float64, t.Schema.SensitiveDomain())
	for i := 0; i < t.Len(); i++ {
		pdf[t.Sensitive(i)]++
	}
	for x := range pdf {
		pdf[x] /= float64(t.Len())
	}
	return pdf
}

// groupPDF returns one group's sensitive distribution.
func groupPDF(t *dataset.Table, rows []int) []float64 {
	pdf := make([]float64, t.Schema.SensitiveDomain())
	for _, i := range rows {
		pdf[t.Sensitive(i)]++
	}
	for x := range pdf {
		pdf[x] /= float64(len(rows))
	}
	return pdf
}

// EMDOrdered is the ordered-domain Earth Mover's Distance between two
// distributions over the same n-code domain, normalized to [0,1]: the
// classic prefix-sum formula Σ|cum_i| / (n-1).
func EMDOrdered(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("generalize: EMD over mismatched domains (%d vs %d)", len(p), len(q))
	}
	n := len(p)
	if n < 2 {
		return 0, nil
	}
	cum, total := 0.0, 0.0
	for i := 0; i < n-1; i++ {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	return total / float64(n-1), nil
}

// totalVariation is the unordered-domain distance: half the L1 distance.
func totalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("generalize: TV over mismatched domains (%d vs %d)", len(p), len(q))
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2, nil
}

// MaxCloseness returns the largest distance between any QI-group's sensitive
// distribution and the table's — the smallest t for which the partition is
// t-close. The distance follows the sensitive attribute's kind.
func MaxCloseness(t *dataset.Table, g *Groups) (float64, error) {
	if g.Len() == 0 {
		return 0, fmt.Errorf("generalize: no groups")
	}
	global := tablePDF(t)
	dist := totalVariation
	if t.Schema.Sensitive.Kind == dataset.Continuous {
		dist = EMDOrdered
	}
	worst := 0.0
	for _, rows := range g.Rows {
		d, err := dist(groupPDF(t, rows), global)
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}
