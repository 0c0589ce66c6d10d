package generalize

import (
	"math"
	"sort"

	"pgpub/internal/dataset"
)

// This file implements the generalization principles analysed in Section III:
// k-anonymity (Samarati/Sweeney [4,5]), distinct ℓ-diversity, entropy
// ℓ-diversity, and the (c,ℓ)-diversity of Machanavajjhala et al. [9]
// (Inequality 1 of the paper).

// IsKAnonymous reports whether every QI-group has at least k tuples
// (Property G2 of the publication framework).
func (g *Groups) IsKAnonymous(k int) bool {
	if g.Len() == 0 {
		return false
	}
	return g.MinSize() >= k
}

// sensitiveCounts returns the multiset of sensitive-value frequencies of one
// group, sorted descending (the paper's n_1 >= n_2 >= ... >= n_l').
func sensitiveCounts(t *dataset.Table, rows []int) []int {
	freq := make(map[int32]int)
	for _, i := range rows {
		freq[t.Sensitive(i)]++
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return counts
}

// DistinctDiversity returns the smallest number of distinct sensitive values
// in any group — the paper's u (Lemma 1). Zero for no groups.
func DistinctDiversity(t *dataset.Table, g *Groups) int {
	if g.Len() == 0 {
		return 0
	}
	u := math.MaxInt
	for _, rows := range g.Rows {
		if n := len(sensitiveCounts(t, rows)); n < u {
			u = n
		}
	}
	return u
}

// IsDistinctLDiverse reports whether every group has at least l distinct
// sensitive values (the "simplest version" of ℓ-diversity, Table Ic).
func IsDistinctLDiverse(t *dataset.Table, g *Groups, l int) bool {
	return g.Len() > 0 && DistinctDiversity(t, g) >= l
}

// GroupSatisfiesCL checks Inequality 1 for a single descending count vector:
// n_1 <= c * (n_l + n_{l+1} + ... + n_{l'}). A group with fewer than l
// distinct values fails.
func GroupSatisfiesCL(counts []int, c float64, l int) bool {
	if l < 1 || len(counts) < l {
		return false
	}
	tail := 0
	for _, n := range counts[l-1:] {
		tail += n
	}
	return float64(counts[0]) <= c*float64(tail)
}

// IsCLDiverse reports whether every QI-group satisfies (c,l)-diversity.
func IsCLDiverse(t *dataset.Table, g *Groups, c float64, l int) bool {
	if g.Len() == 0 {
		return false
	}
	for _, rows := range g.Rows {
		if !GroupSatisfiesCL(sensitiveCounts(t, rows), c, l) {
			return false
		}
	}
	return true
}

// IsEntropyLDiverse reports whether every group's sensitive-value entropy is
// at least log(l).
func IsEntropyLDiverse(t *dataset.Table, g *Groups, l int) bool {
	if g.Len() == 0 || l < 1 {
		return false
	}
	threshold := math.Log(float64(l))
	for _, rows := range g.Rows {
		counts := sensitiveCounts(t, rows)
		total := 0
		for _, n := range counts {
			total += n
		}
		h := 0.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			h -= p * math.Log(p)
		}
		if h < threshold-1e-12 {
			return false
		}
	}
	return true
}
