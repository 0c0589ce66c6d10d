package attack

import (
	"math"
	"math/rand"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
)

// These tests validate the attack equations *as probabilities*, not just as
// bounds: when the adversary's model matches the generative process (uniform
// sensitive values, uniform stratified sampling, known perturbation), the
// ownership probability h of Equation 14 and the posterior of Equation 9
// must be calibrated — among trials where the adversary computes value q,
// the event must occur with frequency ≈ q.

// calibScenario draws a fresh 4-owner microdata with uniform sensitive
// values over a 4-value domain, publishes it, and attacks owner 0.
func calibScenario(rng *rand.Rand, p float64) (truth int32, res *Result, ownerOfCrucial int, err error) {
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("Q", 0, 3)},
		dataset.MustAttribute("S", "s0", "s1", "s2", "s3"),
	)
	tbl := dataset.NewTable(s)
	for i := int32(0); i < 4; i++ {
		tbl.MustAppend([]int32{i, int32(rng.Intn(4))})
	}
	ext, err := NewExternal(tbl, [][]int32{{0}, {1}, {2}, {3}})
	if err != nil {
		return 0, nil, 0, err
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.MustInterval(4, 2)}
	pub, err := pg.Publish(tbl, hiers, pg.Config{K: 2, P: p, Algorithm: pg.KD, Seed: rng.Int63()})
	if err != nil {
		return 0, nil, 0, err
	}
	adv := Adversary{Background: privacy.Uniform(4), Corrupted: map[int]bool{}}
	q, err := privacy.PredicateOf(4, 0, 2) // a fixed 2-value predicate
	if err != nil {
		return 0, nil, 0, err
	}
	res, err = LinkAttack(pub, ext, 0, adv, q)
	if err != nil {
		return 0, nil, 0, err
	}
	crucial, ok := pub.FindCrucial(ext.QIOf(0))
	if !ok {
		return 0, nil, 0, err
	}
	return tbl.Sensitive(0), res, tbl.Owner(crucial.SourceRow), nil
}

// Equation 14's h must match the empirical frequency of "the victim owns
// the crucial tuple" — binned over the h values the adversary computes.
func TestHCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 20000
	const bins = 10
	sumH := make([]float64, bins)
	hits := make([]int, bins)
	counts := make([]int, bins)
	for trial := 0; trial < trials; trial++ {
		_, res, owner, err := calibScenario(rng, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		b := int(res.H * bins)
		if b >= bins {
			b = bins - 1
		}
		sumH[b] += res.H
		counts[b]++
		if owner == 0 {
			hits[b]++
		}
	}
	worst := 0.0
	for b := 0; b < bins; b++ {
		if counts[b] < 300 {
			continue // too few samples for a stable frequency
		}
		pred := sumH[b] / float64(counts[b])
		freq := float64(hits[b]) / float64(counts[b])
		if diff := math.Abs(pred - freq); diff > worst {
			worst = diff
		}
	}
	if worst > 0.04 {
		t.Fatalf("h is miscalibrated: worst bin deviation %v", worst)
	}
}

// Equation 9's posterior confidence about Q must match the empirical
// frequency of Q holding for the victim's true value.
func TestPosteriorCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	const trials = 20000
	const bins = 10
	sumP := make([]float64, bins)
	hits := make([]int, bins)
	counts := make([]int, bins)
	for trial := 0; trial < trials; trial++ {
		truth, res, _, err := calibScenario(rng, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		b := int(res.Posterior * bins)
		if b >= bins {
			b = bins - 1
		}
		sumP[b] += res.Posterior
		counts[b]++
		if truth == 0 || truth == 2 { // Q = {s0, s2}
			hits[b]++
		}
	}
	worst := 0.0
	for b := 0; b < bins; b++ {
		if counts[b] < 300 {
			continue
		}
		pred := sumP[b] / float64(counts[b])
		freq := float64(hits[b]) / float64(counts[b])
		if diff := math.Abs(pred - freq); diff > worst {
			worst = diff
		}
	}
	if worst > 0.04 {
		t.Fatalf("posterior is miscalibrated: worst bin deviation %v", worst)
	}
}
