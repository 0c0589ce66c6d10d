// Package perturb implements Phase 1 of perturbed generalization: uniform
// random perturbation of the sensitive attribute with retention probability
// p (the paper's P1/P2, rooted in randomized response [32] and the
// perturbation operators of Evfimievski et al. [6] and Agrawal et al. [7]).
// It also provides the transition probabilities P[a→b] of Equation 11 and
// the distribution-reconstruction estimator that the mining stack uses to
// undo the perturbation in aggregate.
package perturb

import (
	"fmt"
	"math/rand"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/par"
)

// Perturber applies uniform perturbation over a sensitive domain of a given
// cardinality with retention probability P.
type Perturber struct {
	// P is the retention probability: with probability P the original value
	// is kept, otherwise a uniform value from the domain replaces it.
	P float64
	// Domain is |U^s|.
	Domain int

	// Retained and Redrawn, when non-nil, count the P2 coin flips taken by
	// TableSharded: rows kept versus rows redrawn from U^s. A redraw that
	// happens to reproduce the original value still counts as Redrawn — the
	// counters tally the coin, not the observable outcome. Shards accumulate
	// locally and flush once, so the totals are worker-count-invariant.
	Retained *obs.Counter
	Redrawn  *obs.Counter
}

// NewPerturber validates the parameters.
func NewPerturber(p float64, domain int) (*Perturber, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("perturb: retention probability %v outside [0,1]", p)
	}
	if domain < 1 {
		return nil, fmt.Errorf("perturb: sensitive domain must be non-empty, got %d", domain)
	}
	return &Perturber{P: p, Domain: domain}, nil
}

// ShardRows is the fixed Phase-1 shard size of TableSharded. It is part of
// the determinism contract: changing it changes which RNG stream perturbs
// which row, and therefore the published bytes for a given seed.
const ShardRows = 4096

// TableSharded returns D^p: a deep copy of d with every tuple's sensitive
// value perturbed independently per step P2 of the paper (QI attributes
// untouched, per P1): keep with probability P, otherwise redraw uniformly
// from U^s — the redraw may coincide with the original value.
//
// Parallelism is deterministic: the rows are cut into fixed shards of
// ShardRows, shard i perturbs its rows with a private rand.Rand seeded
// par.SplitSeed(rootSeed, i), and at most workers goroutines execute the
// shards. Because the shard layout and seeds depend only on rootSeed —
// never on workers or the schedule — the output is byte-identical for every
// worker count, including fully sequential runs.
func (pb *Perturber) TableSharded(d *dataset.Table, rootSeed int64, workers int) (*dataset.Table, error) {
	if d.Schema.SensitiveDomain() != pb.Domain {
		return nil, fmt.Errorf("perturb: perturber domain %d != sensitive domain %d",
			pb.Domain, d.Schema.SensitiveDomain())
	}
	out := d.Clone()
	n := out.Len()
	sens := out.SensitiveCol()
	shards := (n + ShardRows - 1) / ShardRows
	par.ForEach(workers, shards, func(s int) {
		rng := rand.New(rand.NewSource(par.SplitSeed(rootSeed, s)))
		hi := (s + 1) * ShardRows
		if hi > n {
			hi = n
		}
		// The shard sweeps its slice of the contiguous sensitive column
		// directly — the clone is private, so the write is safe. Each row
		// draws one Float64, plus one Intn on redraw; that sequence is part
		// of the determinism contract, so neither the columnar write path
		// nor the instrumentation can change the published bytes.
		var retained, redrawn int64
		if u8 := sens.U8(); u8 != nil {
			retained, redrawn = perturbRange(u8, s*ShardRows, hi, pb.P, pb.Domain, rng)
		} else {
			retained, redrawn = perturbRange(sens.I32(), s*ShardRows, hi, pb.P, pb.Domain, rng)
		}
		pb.Retained.Add(retained)
		pb.Redrawn.Add(redrawn)
	})
	return out, nil
}

// perturbRange runs the P2 coin flips over rows [lo,hi) of the sensitive
// column, generic over the column's element width.
func perturbRange[T uint8 | int32](sens []T, lo, hi int, p float64, domain int, rng *rand.Rand) (retained, redrawn int64) {
	for i := lo; i < hi; i++ {
		if rng.Float64() < p {
			retained++
		} else {
			sens[i] = T(rng.Intn(domain))
			redrawn++
		}
	}
	return retained, redrawn
}

// TransitionProb returns P[a→b] of Equation 11: p + (1-p)/|U^s| when a == b,
// (1-p)/|U^s| otherwise.
func (pb *Perturber) TransitionProb(a, b int32) float64 {
	off := (1 - pb.P) / float64(pb.Domain)
	if a == b {
		return pb.P + off
	}
	return off
}
