package pg

import (
	"math/bits"

	"pgpub/internal/generalize"
)

// BoxAggregate is the per-box collapse of a publication: every published row
// whose generalized QI box has the same coordinates is folded into one entry
// carrying the box, the summed stratification weight G, and a G-weighted
// histogram of the observed sensitive values. Under Property G3 the boxes of
// D* are pairwise disjoint, so rows sharing a box are rows of the same
// QI-group and the collapse is lossless for any estimator that touches a row
// only through (Box, Value, G) — which is all of them: the consumer-side
// estimators never see SourceRow.
type BoxAggregate struct {
	// Box is the shared generalized QI box.
	Box generalize.Box
	// G is the total group-size weight of the rows folded into this entry.
	G int
	// Hist is the G-weighted histogram of observed sensitive values:
	// Hist[y] = Σ G over the entry's rows with Value == y. Its length is the
	// sensitive domain size and its sum equals G.
	Hist []int64
}

// Aggregates collapses D* into one BoxAggregate per distinct QI box, in
// first-appearance order of the boxes. It is the construction hook for
// query-serving indexes: a release is immutable once published, so the
// collapse (and anything built on it) is computed once and amortized over
// every query answered against the release.
//
// An empty publication (zero rows — Publish never produces one, but a
// release loaded from an empty CSV body is legal) collapses to an empty,
// non-nil slice. Consumers need no special case: an index built over zero
// aggregates estimates every region weight as 0, so COUNT and SUM estimate
// 0 for every query and AVG reports the region as empty (see query.Index).
func (p *Published) Aggregates() []BoxAggregate {
	// The collapse sweeps the columns — dim-major bound streams plus the
	// value and G columns. Each box
	// is hashed to a uint64 (one pass per bound stream) and probed in a
	// flat table; a hit is confirmed against the bounds of the entry's
	// first row. Rows are visited in order, so entries appear in first
	// appearance order. Bounds and histograms are carved from one slab each
	// once the entry count is known.
	c := p.Columns()
	n, d, domain := c.N, c.D, p.Schema.SensitiveDomain()
	hash := make([]uint64, n)
	for j := 0; j < d; j++ {
		lo, hi := c.Lo[j*n:(j+1)*n], c.Hi[j*n:(j+1)*n]
		for i := range hash {
			hash[i] = (hash[i] ^ uint64(uint32(lo[i]))<<32 ^ uint64(uint32(hi[i]))) * 0x9e3779b97f4a7c15
			hash[i] ^= hash[i] >> 29
		}
	}
	size := 2 << bits.Len(uint(n))
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	slots := make([]int32, size) // entry index + 1; 0 is empty
	entry := make([]int32, n)    // each row's entry
	first := make([]int32, 0, n) // each entry's first row
	for i, h := range hash {
		for s := h * 0x9e3779b97f4a7c15 >> shift; ; s = (s + 1) & uint64(size-1) {
			a := slots[s] - 1
			if a < 0 {
				slots[s] = int32(len(first)) + 1
				entry[i] = int32(len(first))
				first = append(first, int32(i))
				break
			}
			if f := int(first[a]); hash[f] == h && c.sameBox(f, i) {
				entry[i] = a
				break
			}
		}
	}
	bounds := make([]int32, 2*d*len(first))
	hists := make([]int64, domain*len(first))
	out := make([]BoxAggregate, len(first))
	for a, f := range first {
		b := bounds[2*d*a : 2*d*(a+1) : 2*d*(a+1)]
		for j := 0; j < d; j++ {
			b[j], b[d+j] = c.Lo[j*n+int(f)], c.Hi[j*n+int(f)]
		}
		out[a] = BoxAggregate{
			Box:  generalize.Box{Lo: b[:d:d], Hi: b[d:]},
			Hist: hists[domain*a : domain*(a+1) : domain*(a+1)],
		}
	}
	for i, a := range entry {
		out[a].G += int(c.G[i])
		out[a].Hist[c.Value[i]] += c.G[i]
	}
	return out
}
