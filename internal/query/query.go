// Package query implements aggregate COUNT/SUM/AVG estimation over a PG
// publication — the second utility mode the paper's framework supports
// besides decision trees. Stratified sampling makes D* a design-unbiased
// sample of the QI-groups (Chaudhuri et al. [8]): each published tuple
// represents its group with weight G. Range predicates over the QI
// attributes are resolved with the standard uniformity assumption inside a
// generalized cell, and predicates over the sensitive attribute are
// corrected for perturbation by inverse-probability weighting of the
// observed value (the same operator inversion the mining layer uses,
// applied per tuple).
//
// Two evaluation paths share the estimator math. The scan estimators
// (Estimate, EstimateNaive, EstimateSum, EstimateAvg — this file and
// aggregate.go) read the whole release per query and are the reference
// implementation. Index (index.go, grid.go, serve.go) precomputes per-box
// aggregates, an interval grid and a kd-tree from one publication and
// answers the same queries orders of magnitude faster; NewIndexObserved and
// Observe additionally record build/answer metrics (internal/obs). Workload
// generates random query sets and AnswerWorkload fans them across
// GOMAXPROCS goroutines deterministically.
package query

import (
	"fmt"
	"math/rand"

	"pgpub/internal/dataset"
	"pgpub/internal/pg"
)

// Range is an inclusive code interval of one QI attribute.
type Range struct {
	Lo, Hi int32
}

// CountQuery is a conjunctive counting predicate: every QI attribute is
// restricted to a range (use the full domain for "no restriction"), and the
// sensitive attribute optionally to a value set.
type CountQuery struct {
	// QI holds one range per QI attribute, in schema order.
	QI []Range
	// Sensitive optionally masks the qualifying sensitive values; nil means
	// no sensitive restriction.
	Sensitive []bool
}

// validate checks the query against a schema.
func (q CountQuery) validate(s *dataset.Schema) error {
	if len(q.QI) != s.D() {
		return fmt.Errorf("query: %d QI ranges for %d attributes", len(q.QI), s.D())
	}
	for j, r := range q.QI {
		if r.Lo < 0 || int(r.Hi) >= s.QI[j].Size() || r.Lo > r.Hi {
			return fmt.Errorf("query: range %d = [%d,%d] invalid for %q", j, r.Lo, r.Hi, s.QI[j].Name)
		}
	}
	if q.Sensitive != nil && len(q.Sensitive) != s.SensitiveDomain() {
		return fmt.Errorf("query: sensitive mask over %d values, domain is %d",
			len(q.Sensitive), s.SensitiveDomain())
	}
	return nil
}

// sensitiveFraction returns |S|/|U^s| for the mask (1 when nil).
func (q CountQuery) sensitiveFraction(domain int) float64 {
	if q.Sensitive == nil {
		return 1
	}
	n := 0
	for _, in := range q.Sensitive {
		if in {
			n++
		}
	}
	return float64(n) / float64(domain)
}

// TrueCount evaluates the query against the microdata — the ground truth
// the estimators are judged against.
func TrueCount(d *dataset.Table, q CountQuery) (int, error) {
	if err := q.validate(d.Schema); err != nil {
		return 0, err
	}
	count := 0
rows:
	for i := 0; i < d.Len(); i++ {
		for j, r := range q.QI {
			if v := d.QI(i, j); v < r.Lo || v > r.Hi {
				continue rows
			}
		}
		if q.Sensitive != nil && !q.Sensitive[d.Sensitive(i)] {
			continue
		}
		count++
	}
	return count, nil
}

// Estimate computes the PG estimator of the query count from D* alone. The
// QI part uses the uniformity assumption inside each generalized box:
// B = Σ G · volFrac(box, q) estimates the number of microdata tuples in the
// query's QI region. The sensitive part inverts the perturbation operator
// *in aggregate*: with A = Σ G · volFrac · 1{y ∈ S},
//
//	count ≈ (A − (1−p) · |S|/|U^s| · B) / p,
//
// clamped to [0, B] at the end. Aggregating before inverting keeps the
// estimator unbiased — clamping per tuple would cancel the correction
// entirely, which is exactly the naive estimator's bias. p must be positive
// when the query restricts the sensitive attribute.
func Estimate(pub *pg.Published, q CountQuery) (float64, error) {
	if err := q.validate(pub.Schema); err != nil {
		return 0, err
	}
	domain := pub.Schema.SensitiveDomain()
	sf := q.sensitiveFraction(domain)
	if q.Sensitive != nil && pub.P <= 0 {
		return 0, fmt.Errorf("query: sensitive predicates need retention probability > 0, publication has p = %v", pub.P)
	}
	a, b := 0.0, 0.0
	c := pub.Columns()
	for i := 0; i < c.N; i++ {
		vf := volumeFraction(c, i, q.QI)
		if vf == 0 {
			continue
		}
		w := float64(c.G[i]) * vf
		b += w
		if q.Sensitive == nil || q.Sensitive[c.Value[i]] {
			a += w
		}
	}
	if q.Sensitive == nil {
		return b, nil
	}
	est := (a - (1-pub.P)*sf*b) / pub.P
	if est < 0 {
		est = 0
	}
	if est > b {
		est = b
	}
	return est, nil
}

// EstimateNaive is the uncorrected estimator (ŝ = 1{y∈S}) used by the
// ablation experiment: it treats perturbed values as exact, which biases
// counts toward (1-p)·|S|/|U^s| of everything.
func EstimateNaive(pub *pg.Published, q CountQuery) (float64, error) {
	if err := q.validate(pub.Schema); err != nil {
		return 0, err
	}
	total := 0.0
	c := pub.Columns()
	for i := 0; i < c.N; i++ {
		vf := volumeFraction(c, i, q.QI)
		if vf == 0 {
			continue
		}
		if q.Sensitive != nil && !q.Sensitive[c.Value[i]] {
			continue
		}
		total += float64(c.G[i]) * vf
	}
	return total, nil
}

// volumeFraction is the fraction of row i's box covered by the query ranges.
func volumeFraction(c *pg.RowColumns, i int, ranges []Range) float64 {
	f := 1.0
	for j, r := range ranges {
		lo, hi := c.Lo[j*c.N+i], c.Hi[j*c.N+i]
		a, b := lo, hi
		if r.Lo > a {
			a = r.Lo
		}
		if r.Hi < b {
			b = r.Hi
		}
		if a > b {
			return 0
		}
		f *= float64(b-a+1) / float64(hi-lo+1)
	}
	return f
}

// WorkloadConfig drives the random-query generator.
type WorkloadConfig struct {
	// Queries is the workload size.
	Queries int
	// QIFraction is the per-attribute expected range width as a fraction of
	// the domain (0.5 restricts each attribute to about half its values).
	QIFraction float64
	// RestrictAttrs is how many QI attributes each query restricts (the
	// rest keep their full domain). 0 restricts all.
	RestrictAttrs int
	// SensitiveFraction, when positive, adds a sensitive predicate covering
	// about this fraction of U^s (a contiguous code band).
	SensitiveFraction float64
	// Rng is required.
	Rng *rand.Rand
}

// Workload generates random conjunctive counting queries against a schema.
func Workload(s *dataset.Schema, cfg WorkloadConfig) ([]CountQuery, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("query: workload needs at least 1 query")
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("query: Rng is required")
	}
	if cfg.QIFraction <= 0 || cfg.QIFraction > 1 {
		return nil, fmt.Errorf("query: QIFraction %v outside (0,1]", cfg.QIFraction)
	}
	restrict := cfg.RestrictAttrs
	if restrict <= 0 || restrict > s.D() {
		restrict = s.D()
	}
	out := make([]CountQuery, 0, cfg.Queries)
	for qi := 0; qi < cfg.Queries; qi++ {
		q := CountQuery{QI: make([]Range, s.D())}
		for j, a := range s.QI {
			q.QI[j] = Range{Lo: 0, Hi: int32(a.Size() - 1)}
		}
		for _, j := range cfg.Rng.Perm(s.D())[:restrict] {
			size := s.QI[j].Size()
			width := int(cfg.QIFraction*float64(size) + 0.5)
			if width < 1 {
				width = 1
			}
			if width > size {
				width = size
			}
			lo := cfg.Rng.Intn(size - width + 1)
			q.QI[j] = Range{Lo: int32(lo), Hi: int32(lo + width - 1)}
		}
		if cfg.SensitiveFraction > 0 {
			domain := s.SensitiveDomain()
			width := int(cfg.SensitiveFraction*float64(domain) + 0.5)
			if width < 1 {
				width = 1
			}
			if width > domain {
				width = domain
			}
			lo := cfg.Rng.Intn(domain - width + 1)
			mask := make([]bool, domain)
			for x := lo; x < lo+width; x++ {
				mask[x] = true
			}
			q.Sensitive = mask
		}
		out = append(out, q)
	}
	return out, nil
}
