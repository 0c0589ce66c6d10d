package query

import (
	"fmt"
	"time"

	"pgpub/internal/par"
)

// This file is the serving half of the query engine: the Index counterparts
// of the scan estimators (Estimate, EstimateNaive, EstimateSum, EstimateAvg)
// plus the batched AnswerWorkload. Each method applies exactly the same
// inversion formula as its scan twin — only the accumulation of the region
// sums is replaced by the pruned tree traversal — so answers agree with the
// scan path up to floating-point summation order.

// maskValuer turns a sensitive mask into the traversal's value weighting: a
// nil mask needs no value-weighted sum at all, and a contiguous band (the
// shape Workload generates and pgquery's -income flag builds) is flagged so
// contained subtrees answer it from their prefix sums in O(1).
func maskValuer(mask []bool) valuer {
	if mask == nil {
		return valuer{}
	}
	v := valuer{wv: make([]float64, len(mask)), lo: -1}
	contiguous := true
	for y, in := range mask {
		if !in {
			continue
		}
		v.wv[y] = 1
		if v.lo < 0 {
			v.lo = int32(y)
		} else if int32(y) != v.hi+1 {
			contiguous = false
		}
		v.hi = int32(y)
	}
	v.band = contiguous && v.lo >= 0
	return v
}

// Count is the indexed Estimate: the PG count estimator of the query,
// answered from the precomputed per-box aggregates. On an observed index
// (see Observe) each call records its wall clock into the
// query.count.latency histogram.
func (ix *Index) Count(q CountQuery) (float64, error) {
	if h := ix.met.latency; h != nil {
		t0 := time.Now()
		est, err := ix.countImpl(q)
		h.Observe(int64(time.Since(t0)))
		return est, err
	}
	return ix.countImpl(q)
}

func (ix *Index) countImpl(q CountQuery) (float64, error) {
	if err := q.validate(ix.schema); err != nil {
		return 0, err
	}
	if q.Sensitive != nil && ix.p <= 0 {
		return 0, fmt.Errorf("query: sensitive predicates need retention probability > 0, publication has p = %v", ix.p)
	}
	v := maskValuer(q.Sensitive)
	a, b := ix.gather(q.QI, &v)
	if q.Sensitive == nil {
		return b, nil
	}
	sf := q.sensitiveFraction(ix.schema.SensitiveDomain())
	est := (a - (1-ix.p)*sf*b) / ix.p
	if est < 0 {
		est = 0
	}
	if est > b {
		est = b
	}
	return est, nil
}

// Naive is the indexed EstimateNaive: the uncorrected estimator that treats
// perturbed values as exact.
func (ix *Index) Naive(q CountQuery) (float64, error) {
	if err := q.validate(ix.schema); err != nil {
		return 0, err
	}
	v := maskValuer(q.Sensitive)
	a, b := ix.gather(q.QI, &v)
	if q.Sensitive == nil {
		return b, nil
	}
	return a, nil
}

// sumWeight runs the SUM/AVG traversal behind AvgParts: the value-weighted
// region sum a = Σ G·vf·value(y) and the region weight b = Σ G·vf.
func (ix *Index) sumWeight(q CountQuery, value SensitiveValue) (a, b float64, err error) {
	if q.Sensitive != nil {
		return 0, 0, fmt.Errorf("query: SUM/AVG take no sensitive mask")
	}
	if err := q.validate(ix.schema); err != nil {
		return 0, 0, err
	}
	if ix.p <= 0 {
		return 0, 0, fmt.Errorf("query: SUM estimation needs retention probability > 0, publication has p = %v", ix.p)
	}
	v := valuer{wv: make([]float64, ix.schema.SensitiveDomain())}
	for y := range v.wv {
		v.wv[y] = value(int32(y))
	}
	a, b = ix.gather(q.QI, &v)
	return a, b, nil
}

// AvgParts exposes the compose form of the SUM/AVG estimators: the
// perturbation-inverted region SUM and the region weight b (the published
// tuple mass under the QI predicate). SUM is additive in the first part and
// AVG over a union of disjoint publications — the sharded release — is
// Σ sums / Σ weights, which is how the fan-out coordinator merges per-shard
// answers without a second round trip.
func (ix *Index) AvgParts(q CountQuery, value SensitiveValue) (sum, weight float64, err error) {
	a, b, err := ix.sumWeight(q, value)
	if err != nil {
		return 0, 0, err
	}
	sum = (a - (1-ix.p)*domainMean(ix.schema.SensitiveDomain(), value)*b) / ix.p
	return sum, b, nil
}

// AnswerWorkload answers a COUNT workload, fanning the queries across at
// most workers goroutines (par semantics: 0 means GOMAXPROCS). Every query
// is answered wholly by one worker against the shared immutable index, and
// answers land at their query's position, so the output is byte-identical
// for every worker count. On error the first failing query by position is
// reported and no answers are returned.
func (ix *Index) AnswerWorkload(qs []CountQuery, workers int) ([]float64, error) {
	out := make([]float64, len(qs))
	err := par.ForEachErr(workers, len(qs), func(i int) error {
		v, err := ix.Count(qs[i])
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
