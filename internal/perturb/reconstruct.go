package perturb

import (
	"fmt"
	"math"
)

// This file implements distribution reconstruction: estimating the original
// sensitive-value histogram from a perturbed one. For uniform perturbation
// the operator is analytically invertible (the Warner estimator).

// ReconstructCategories inverts the perturbation aggregated over categories:
// category j covers fraction frac[j] of U^s (sum of fractions must be 1),
// and E[obs_j] = p*c_j + (1-p) * N * frac[j]. This is what the PG-aware
// decision tree uses per node, with the analyst's income categorization.
func ReconstructCategories(obs, frac []float64, p float64) ([]float64, error) {
	if len(obs) != len(frac) {
		return nil, fmt.Errorf("perturb: %d observed counts for %d categories", len(obs), len(frac))
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("perturb: reconstruction needs p in (0,1], got %v", p)
	}
	fsum := 0.0
	for j, f := range frac {
		if f < 0 {
			return nil, fmt.Errorf("perturb: negative category fraction %v", f)
		}
		if obs[j] < 0 {
			return nil, fmt.Errorf("perturb: negative observed count %v", obs[j])
		}
		fsum += f
	}
	if math.Abs(fsum-1) > 1e-9 {
		return nil, fmt.Errorf("perturb: category fractions sum to %v, want 1", fsum)
	}
	n := 0.0
	for _, o := range obs {
		n += o
	}
	out := make([]float64, len(obs))
	if n == 0 {
		return out, nil
	}
	clampedMass := 0.0
	for j, o := range obs {
		c := (o - (1-p)*n*frac[j]) / p
		if c < 0 {
			c = 0
		}
		out[j] = c
		clampedMass += c
	}
	if clampedMass > 0 {
		scale := n / clampedMass
		for j := range out {
			out[j] *= scale
		}
	}
	return out, nil
}
