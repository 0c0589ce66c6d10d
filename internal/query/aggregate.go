package query

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/pg"
)

// This file extends the COUNT machinery to SUM and AVG of the sensitive
// attribute over a QI region, for ordered sensitive domains whose codes map
// to numeric values (the SAL Income buckets). The perturbation operator
// shifts an observed value's expectation linearly:
//
//	E[value(y)] = p · value(x) + (1-p) · mean(U^s)
//
// so the region's sensitive sum inverts in aggregate, exactly like the
// count estimator's sensitive correction.

// SensitiveValue maps a sensitive code to the numeric value aggregated by
// SUM/AVG. IncomeMidpoint is the natural choice for SAL.
type SensitiveValue func(code int32) float64

// IncomeMidpoint maps the paper's Income bucket i ([2000i, 2000(i+1)) USD)
// to its midpoint in dollars.
func IncomeMidpoint(code int32) float64 { return 2000*float64(code) + 1000 }

// TrueSum computes SUM(value(sensitive)) over the microdata rows matching
// the query's QI ranges (the query's Sensitive mask must be nil: SUM/AVG
// aggregate the sensitive attribute itself).
func TrueSum(d *dataset.Table, q CountQuery, value SensitiveValue) (float64, error) {
	if q.Sensitive != nil {
		return 0, fmt.Errorf("query: SUM/AVG take no sensitive mask")
	}
	if err := q.validate(d.Schema); err != nil {
		return 0, err
	}
	sum := 0.0
rows:
	for i := 0; i < d.Len(); i++ {
		for j, r := range q.QI {
			if v := d.QI(i, j); v < r.Lo || v > r.Hi {
				continue rows
			}
		}
		sum += value(d.Sensitive(i))
	}
	return sum, nil
}

// sumWeight is the one scan both SUM and AVG are built from: the
// value-weighted region sum a = Σ G·vf·value(y) and the region weight
// b = Σ G·vf over the rows intersecting the query.
func sumWeight(pub *pg.Published, q CountQuery, value SensitiveValue) (a, b float64, err error) {
	if q.Sensitive != nil {
		return 0, 0, fmt.Errorf("query: SUM/AVG take no sensitive mask")
	}
	if err := q.validate(pub.Schema); err != nil {
		return 0, 0, err
	}
	if pub.P <= 0 {
		return 0, 0, fmt.Errorf("query: SUM estimation needs retention probability > 0, publication has p = %v", pub.P)
	}
	c := pub.Columns()
	for i := 0; i < c.N; i++ {
		vf := volumeFraction(c, i, q.QI)
		if vf == 0 {
			continue
		}
		w := float64(c.G[i]) * vf
		a += w * value(c.Value[i])
		b += w
	}
	return a, b, nil
}

// domainMean is the mean of value over the whole sensitive domain — the
// center the perturbation operator pulls observed values toward.
func domainMean(domain int, value SensitiveValue) float64 {
	mean := 0.0
	for x := int32(0); int(x) < domain; x++ {
		mean += value(x)
	}
	return mean / float64(domain)
}

// EstimateSum estimates SUM(value(sensitive)) over the query region from D*
// alone: the observed weighted sum A = Σ G·vf·value(y) has expectation
// p·S + (1-p)·mean(U^s)·N over the region (N estimated by B = Σ G·vf), so
// S ≈ (A − (1−p)·mean·B) / p. Requires p > 0.
func EstimateSum(pub *pg.Published, q CountQuery, value SensitiveValue) (float64, error) {
	a, b, err := sumWeight(pub, q, value)
	if err != nil {
		return 0, err
	}
	return (a - (1-pub.P)*domainMean(pub.Schema.SensitiveDomain(), value)*b) / pub.P, nil
}

// EstimateAvg estimates AVG(value(sensitive)) over the query region: the SUM
// estimate divided by the region's estimated count. Both come out of one
// scan — the count estimate of a mask-free query is exactly the weight term
// b of the SUM inversion. Errors when the region is estimated empty.
func EstimateAvg(pub *pg.Published, q CountQuery, value SensitiveValue) (float64, error) {
	a, b, err := sumWeight(pub, q, value)
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 0, fmt.Errorf("query: region estimated empty")
	}
	sum := (a - (1-pub.P)*domainMean(pub.Schema.SensitiveDomain(), value)*b) / pub.P
	return sum / b, nil
}
