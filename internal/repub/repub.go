// Package repub studies re-publication, the future-work direction the paper
// names in Section IX: releasing fresh PG anonymizations of the microdata
// over time. Each release re-runs all three phases with fresh randomness, so
// an adversary who collects T releases observes T (possibly perturbed)
// values of the victim's crucial tuples and can compose them.
//
// The composition model: conditioned on the victim's true value X, the T
// releases are independent (fresh perturbation and sampling), so the exact
// multi-release posterior is the naive-Bayes product of the per-release
// likelihoods implied by Equation 9:
//
//	ℓ_t(x) = h_t · P[x→y_t] / (p_t·prior[y_t] + u_t)  +  (1 − h_t)
//
// with h_t from the per-release linking attack. For T = 1 this reduces to
// Equation 9 exactly.
//
// The package also derives a closed-form growth bound. Per release, the
// posterior odds of any predicate Q grow by at most R = 1 + h⊤·p/u (the
// worst-case likelihood ratio between a value matching the observation and
// any other value). After T releases the odds grow by at most R^T, and
// maximizing the resulting growth over the prior mass of Q gives
//
//	Δ_T  ≤  (sqrt(R^T) − 1) / (sqrt(R^T) + 1).
//
// The bound is intentionally conservative (it discards the λ-skew inside the
// denominator, so at T = 1 it is looser than Theorem 3's exact bound); its
// value is that it composes, which Theorem 3 does not. MaxRetentionForSeries
// inverts it to plan a per-release retention probability that keeps the
// composed growth under a target Δ — quantifying the paper's remark that
// re-publication "is a difficult problem": the admissible p shrinks with T.
package repub

import (
	"fmt"
	"math"

	"pgpub/internal/attack"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
)

// Observation is one release's evidence about the victim: the observed
// sensitive value of the crucial tuple, the ownership probability h computed
// by the per-release linking attack, and the release's retention
// probability.
type Observation struct {
	Y int32
	H float64
	P float64
}

// ComposePosterior computes the exact multi-release posterior pdf under the
// independence model described in the package comment.
func ComposePosterior(prior privacy.PDF, obs []Observation) (privacy.PDF, error) {
	if err := prior.Validate(); err != nil {
		return nil, err
	}
	post := prior.Clone()
	for t, o := range obs {
		if err := compose(post, prior, t, o); err != nil {
			return nil, err
		}
	}
	return post, nil
}

// compose folds observation t into post in place: it multiplies in the
// release's likelihood and renormalizes.
func compose(post, prior privacy.PDF, t int, o Observation) error {
	n := len(prior)
	if o.Y < 0 || int(o.Y) >= n {
		return fmt.Errorf("repub: observation %d: y = %d outside domain of %d", t, o.Y, n)
	}
	if o.H < 0 || o.H > 1 || o.P < 0 || o.P > 1 {
		return fmt.Errorf("repub: observation %d: h = %v, p = %v outside [0,1]", t, o.H, o.P)
	}
	u := (1 - o.P) / float64(n)
	den := o.P*prior[o.Y] + u
	mass := 0.0
	for x := range post {
		var like float64
		if den == 0 {
			like = 1 // impossible observation under the prior: uninformative
		} else {
			trans := u
			if int32(x) == o.Y {
				trans += o.P
			}
			like = o.H*trans/den + (1 - o.H)
		}
		post[x] *= like
		mass += post[x]
	}
	if mass == 0 {
		return fmt.Errorf("repub: observation %d annihilated the posterior", t)
	}
	for x := range post {
		post[x] /= mass
	}
	return nil
}

// MultiReleaseAttack runs the per-release linking attack against every
// release — release t linked through exts[t], the external database of its
// microdata — and composes the results. It returns the per-release
// observations, the prior, and the composed posterior confidence about Q
// after each prefix: posteriors[t] composes releases 0..t.
func MultiReleaseAttack(releases []*pg.Published, exts []*attack.External, victim int, adv attack.Adversary, q privacy.Predicate) (obs []Observation, prior float64, posteriors []float64, err error) {
	if len(releases) == 0 {
		return nil, 0, nil, fmt.Errorf("repub: no releases")
	}
	if len(exts) != len(releases) {
		return nil, 0, nil, fmt.Errorf("repub: %d externals for %d releases", len(exts), len(releases))
	}
	if err := adv.Background.Validate(); err != nil {
		return nil, 0, nil, err
	}
	post := adv.Background.Clone()
	for t, pub := range releases {
		res, err := attack.LinkAttack(pub, exts[t], victim, adv, q)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("release %d: %w", t, err)
		}
		o := Observation{Y: res.Y, H: res.H, P: pub.P}
		obs = append(obs, o)
		prior = res.Prior
		if err := compose(post, adv.Background, t, o); err != nil {
			return nil, 0, nil, err
		}
		conf, err := post.Confidence(q)
		if err != nil {
			return nil, 0, nil, err
		}
		posteriors = append(posteriors, conf)
	}
	return obs, prior, posteriors, nil
}

// OddsRatioBound returns R = 1 + h⊤·p/u, the worst-case per-release
// multiplicative growth of any predicate's posterior odds.
func OddsRatioBound(p, lambda float64, k, domain int) float64 {
	if p >= 1 {
		return math.Inf(1)
	}
	u := (1 - p) / float64(domain)
	return 1 + privacy.HTop(p, lambda, k, domain)*p/u
}

// ComposedGrowthBound bounds the posterior-minus-prior growth achievable by
// combining T releases: (sqrt(R^T) − 1) / (sqrt(R^T) + 1).
func ComposedGrowthBound(T int, p, lambda float64, k, domain int) (float64, error) {
	if T < 1 {
		return 0, fmt.Errorf("repub: need at least 1 release, got %d", T)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("repub: p = %v outside [0,1]", p)
	}
	if p == 1 {
		return 1, nil
	}
	r := OddsRatioBound(p, lambda, k, domain)
	sq := math.Pow(r, float64(T)/2)
	return (sq - 1) / (sq + 1), nil
}

// MaxRetentionForSeries returns the largest per-release retention
// probability p such that the composed growth over T releases stays within
// delta. It returns an error when even p = 0 exceeds the target (impossible:
// at p = 0 the bound is 0 for any T).
func MaxRetentionForSeries(T int, lambda, delta float64, k, domain int) (float64, error) {
	if T < 1 {
		return 0, fmt.Errorf("repub: need at least 1 release, got %d", T)
	}
	if delta <= 0 || delta > 1 {
		return 0, fmt.Errorf("repub: delta = %v outside (0,1]", delta)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		g, err := ComposedGrowthBound(T, mid, lambda, k, domain)
		if err != nil {
			return 0, err
		}
		if g <= delta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
