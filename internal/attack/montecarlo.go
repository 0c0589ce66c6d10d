package attack

import (
	"fmt"
	"math/rand"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
)

// MonteCarloConfig drives the empirical validation of Theorems 2 and 3
// (DESIGN.md Extra E1): republish D* many times with fresh randomness,
// attack a random victim with a random corruption set each trial, and track
// the worst posterior/growth observed against the analytic bounds.
type MonteCarloConfig struct {
	// PG holds the publication parameters (K, P, Algorithm). Its Seed is
	// replaced per trial.
	PG pg.Config
	// Trials is the number of publish-attack rounds.
	Trials int
	// Lambda bounds the skew of the adversaries drawn (their priors are
	// uniform or Excluding-style, whose skew is kept <= Lambda).
	Lambda float64
	// CorruptFraction is the expected fraction of ℰ−{victim} corrupted per
	// trial; 1 reproduces the worst case |𝒞| = |ℰ|−1.
	CorruptFraction float64
	// Seed drives all randomness: trial i draws from par.SplitSeed(Seed, i).
	Seed int64
	// Workers bounds the goroutines running trials (0 = GOMAXPROCS). The
	// result is identical for every value.
	Workers int
}

// MonteCarloResult aggregates the trials.
type MonteCarloResult struct {
	Trials        int
	MaxH          float64 // worst ownership probability observed
	MaxHBound     float64 // analytic h⊤ (Inequality 20)
	MaxPosterior  float64 // worst posterior confidence with prior <= rho1
	MaxGrowth     float64 // worst posterior - prior
	Rho2Bound     float64 // analytic Theorem-2 bound for rho1 = Lambda-style priors
	DeltaBound    float64 // analytic Theorem-3 bound
	BreachesRho   int     // trials violating the rho bound (must be 0)
	BreachesDelta int     // trials violating the delta bound (must be 0)
}

// MonteCarlo runs the validation. The predicate attacked each trial is
// Q = {y}-containing random sets; since Theorem 1 disposes of y ∉ Q cases,
// the harness always includes the observed y in Q to stress the bound.
func MonteCarlo(d *dataset.Table, voterQI [][]int32, hiers []*hierarchy.Hierarchy, cfg MonteCarloConfig) (*MonteCarloResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("attack: Trials must be positive")
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("attack: Lambda = %v outside (0,1]", cfg.Lambda)
	}
	ext, err := NewExternal(d, voterQI)
	if err != nil {
		return nil, err
	}
	domain := d.Schema.SensitiveDomain()

	res := &MonteCarloResult{Trials: cfg.Trials}
	p, k := cfg.PG.P, cfg.PG.K
	res.MaxHBound = privacy.HTop(p, cfg.Lambda, k, domain)
	rho1 := cfg.Lambda // Excluding-style priors below keep prior <= lambda per value set... conservative: use lambda as rho1
	res.Rho2Bound, err = privacy.MinRho2(p, cfg.Lambda, rho1, k, domain)
	if err != nil {
		return nil, err
	}
	res.DeltaBound, err = privacy.MinDelta(p, cfg.Lambda, k, domain)
	if err != nil {
		return nil, err
	}

	// Microdata owners are the eligible victims.
	var owners []int
	for id := 0; id < ext.Len(); id++ {
		if !ext.IsExtraneous(id) {
			owners = append(owners, id)
		}
	}
	if len(owners) == 0 {
		return nil, fmt.Errorf("attack: no microdata owners in the external database")
	}

	// Each trial owns its random stream and its result slot, so the
	// schedule cannot change what a trial draws or the order of the fold.
	results := make([]*Result, cfg.Trials)
	err = par.ForEachErr(cfg.Workers, cfg.Trials, func(trial int) error {
		rng := rand.New(rand.NewSource(par.SplitSeed(cfg.Seed, trial)))
		pcfg := cfg.PG
		pcfg.Seed = rng.Int63()
		pub, err := pg.Publish(d, hiers, pcfg)
		if err != nil {
			return err
		}
		victim := owners[rng.Intn(len(owners))]

		adv := Adversary{
			Background: privacy.Uniform(domain),
			Corrupted:  map[int]bool{},
		}
		for id := 0; id < ext.Len(); id++ {
			if id != victim && rng.Float64() < cfg.CorruptFraction {
				adv.Corrupted[id] = true
			}
		}

		// The uniform prior's skew 1/domain is <= Lambda whenever
		// domain >= 1/Lambda; build a skewed prior otherwise by
		// excluding values, capped so the skew stays within Lambda.
		if cfg.Lambda > 1/float64(domain) {
			keep := int(1/cfg.Lambda + 0.999999)
			if keep < 1 {
				keep = 1
			}
			if keep < domain {
				var excluded []int32
				truth := d.Sensitive(ext.RowOf(victim))
				for x := int32(0); len(excluded) < domain-keep && int(x) < domain; x++ {
					if x != truth { // honest background: never exclude the truth
						excluded = append(excluded, x)
					}
				}
				bg, err := privacy.Excluding(domain, excluded...)
				if err != nil {
					return err
				}
				adv.Background = bg
			}
		}

		// Attack with a predicate that contains the observed y.
		t, ok := pub.FindCrucial(ext.QIOf(victim))
		if !ok {
			return fmt.Errorf("attack: trial %d: no crucial tuple", trial)
		}
		values := []int32{t.Value}
		for x := int32(0); int(x) < domain; x++ {
			if x != t.Value && rng.Float64() < 0.2 {
				values = append(values, x)
			}
		}
		q, err := privacy.PredicateOf(domain, values...)
		if err != nil {
			return err
		}

		results[trial], err = LinkAttack(pub, ext, victim, adv, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.H > res.MaxH {
			res.MaxH = r.H
		}
		growth := r.Posterior - r.Prior
		if growth > res.MaxGrowth {
			res.MaxGrowth = growth
		}
		if growth > res.DeltaBound+1e-9 {
			res.BreachesDelta++
		}
		if r.Prior <= rho1+1e-12 {
			if r.Posterior > res.MaxPosterior {
				res.MaxPosterior = r.Posterior
			}
			if r.Posterior > res.Rho2Bound+1e-9 {
				res.BreachesRho++
			}
		}
	}
	return res, nil
}
