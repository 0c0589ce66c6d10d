package query

import (
	"fmt"
	"math"
)

// The kd walk as it was before cut sets were handed down the tree and
// partial leaves were resolved column by column: every node tests every
// restricting range, and a partial leaf computes each entry's volume
// fraction on its own, skipping the entry at its first zero factor. Kept
// test-only as the reference the walk must reproduce bit for bit
// (TestKDWalkMatchesReference in walk_ref_ext_test.go).

// refRelateNode classifies node ni's bound against every restricting range.
func (ix *Index) refRelateNode(ni int32, act []activeRange) int {
	nN := int32(len(ix.nodeG))
	rel := relContained
	for _, r := range act {
		o := int32(r.dim)*nN + ni
		lo, hi := ix.nodeLo[o], ix.nodeHi[o]
		if hi < r.lo || r.hi < lo {
			return relDisjoint
		}
		if r.lo > lo || hi > r.hi {
			rel = relPartial
		}
	}
	return rel
}

// refVFEntry is the volume fraction of entry i over the restricting dims,
// factors multiplied in act (= dim) order.
func (ix *Index) refVFEntry(i int, act []activeRange) float64 {
	f := 1.0
	for _, r := range act {
		o := r.dim*ix.nE + i
		a, b := ix.entLo[o], ix.entHi[o]
		lo, hi := a, b
		if r.lo > lo {
			lo = r.lo
		}
		if r.hi < hi {
			hi = r.hi
		}
		if lo > hi {
			return 0
		}
		f *= float64(hi-lo+1) / float64(b-a+1)
	}
	return f
}

// refWalk accumulates the two estimator sums over the subtree at ni.
func (ix *Index) refWalk(ni int32, act []activeRange, v *valuer, a, b *float64) {
	switch ix.refRelateNode(ni, act) {
	case relDisjoint:
		return
	case relContained:
		*b += ix.nodeG[ni]
		dom := ix.schema.SensitiveDomain()
		switch {
		case v.wv == nil:
		case v.band:
			pref := ix.nodePref[int(ni)*(dom+1) : (int(ni)+1)*(dom+1)]
			*a += pref[v.hi+1] - pref[v.lo]
		default:
			hist := ix.nodeHist[int(ni)*dom : (int(ni)+1)*dom]
			for code, h := range hist {
				if h != 0 {
					*a += h * v.wv[code]
				}
			}
		}
		return
	}
	if l := ix.nodeLeft[ni]; l >= 0 {
		ix.refWalk(l, act, v, a, b)
		ix.refWalk(ix.nodeRight[ni], act, v, a, b)
		return
	}
	for i := int(ix.nodeELo[ni]); i < int(ix.nodeEHi[ni]); i++ {
		vf := ix.refVFEntry(i, act)
		if vf == 0 {
			continue
		}
		*b += ix.entG[i] * vf
		if v.wv != nil {
			for o := ix.valOff[i]; o < ix.valOff[i+1]; o++ {
				*a += ix.valW[o] * vf * v.wv[ix.valCode[o]]
			}
		}
	}
}

// refGather is gather for a query the kd walk answers (three or more
// restricted attributes): the two sums through refWalk.
func (ix *Index) refGather(q []Range, v *valuer) (a, b float64) {
	if ix.root >= 0 {
		ix.refWalk(ix.root, ix.activeRanges(q), v, &a, &b)
	}
	return a, b
}

// refEstimates answers q the way Count, Naive and AvgParts did
// over the reference walk — the estimator formulas are theirs, unchanged —
// labelled by estimator, with each error as its answer's text.
func refEstimates(ix *Index, q CountQuery, value SensitiveValue) map[string]string {
	out := map[string]string{}
	mv := maskValuer(q.Sensitive)
	a, b := ix.refGather(q.QI, &mv)
	switch {
	case q.Sensitive == nil:
		out["Count"] = show(b, nil)
	case ix.p <= 0:
		out["Count"] = "error"
	default:
		sf := q.sensitiveFraction(ix.schema.SensitiveDomain())
		est := (a - (1-ix.p)*sf*b) / ix.p
		if est < 0 {
			est = 0
		}
		if est > b {
			est = b
		}
		out["Count"] = show(est, nil)
	}
	if q.Sensitive == nil {
		out["Naive"] = show(b, nil)
	} else {
		out["Naive"] = show(a, nil)
	}
	if q.Sensitive != nil || ix.p <= 0 {
		return out
	}
	v := valuer{wv: make([]float64, ix.schema.SensitiveDomain())}
	for y := range v.wv {
		v.wv[y] = value(int32(y))
	}
	a, b = ix.refGather(q.QI, &v)
	sum := (a - (1-ix.p)*domainMean(ix.schema.SensitiveDomain(), value)*b) / ix.p
	out["AvgParts.sum"], out["AvgParts.weight"] = show(sum, nil), show(b, nil)
	return out
}

// estimates answers q through the index's public estimators, in
// refEstimates' form.
func estimates(ix *Index, q CountQuery, value SensitiveValue) map[string]string {
	out := map[string]string{}
	out["Count"] = show(ix.Count(q))
	out["Naive"] = show(ix.Naive(q))
	if q.Sensitive != nil || ix.p <= 0 {
		return out
	}
	sum, w, err := ix.AvgParts(q, value)
	out["AvgParts.sum"], out["AvgParts.weight"] = show(sum, err), show(w, err)
	return out
}

// show renders an answer by its bits, or "error" when there is none.
func show(v float64, err error) string {
	if err != nil {
		return "error"
	}
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

// WalkMatchesReference reports the first estimator whose answer to q
// differs from the reference walk's, bit for bit; value is the SUM/AVG
// value map. It is exported to the package's external tests, which open
// mapped snapshots.
func WalkMatchesReference(ix *Index, q CountQuery, value SensitiveValue) error {
	if n := len(ix.activeRanges(q.QI)); n < 3 {
		return fmt.Errorf("query restricts %d attributes; the kd walk answers 3 or more", n)
	}
	want, got := refEstimates(ix, q, value), estimates(ix, q, value)
	for _, k := range []string{"Count", "Naive", "AvgParts.sum", "AvgParts.weight"} {
		if got[k] != want[k] {
			return fmt.Errorf("%s: walk %s, reference %s", k, got[k], want[k])
		}
	}
	return nil
}
