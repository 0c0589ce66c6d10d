package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pgpub/internal/dataset"
	"pgpub/internal/mining"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// UtilityConfig parameterizes the decision-tree utility experiments of
// Figures 2 and 3.
type UtilityConfig struct {
	// N is the SAL cardinality (the paper uses 700k; 100k reproduces the
	// shapes at laptop scale — see EXPERIMENTS.md).
	N int
	// Seed drives data generation and every random stage.
	Seed int64
	// M is the income categorization granularity: 2 or 3 (Section VII-A).
	M int
	// Reps averages each point over this many publication/train runs
	// (default 1, the paper's single-run style).
	Reps int
}

func (c *UtilityConfig) setDefaults() error {
	if c.N <= 0 {
		c.N = 100000
	}
	if c.M == 0 {
		c.M = 2
	}
	if c.M != 2 && c.M != 3 {
		return fmt.Errorf("experiments: m must be 2 or 3, got %d", c.M)
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	return nil
}

// UtilityPoint is one x-position of a utility figure: the classification
// errors (1 - accuracy, evaluated over the full microdata) of the three
// competitors.
type UtilityPoint struct {
	X      float64 // k for Figure 2, p for Figure 3
	ErrPG  float64
	ErrOpt float64
	ErrPes float64
}

// Figure2 computes classification error versus k at p = 0.3 (Figures 2a and
// 2b, depending on cfg.M).
func Figure2(cfg UtilityConfig) ([]UtilityPoint, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return utilitySweep(cfg, []int{2, 4, 6, 8, 10}, nil, 0.3, 0)
}

// Figure3 computes classification error versus p at k = 6 (Figures 3a and
// 3b, depending on cfg.M).
func Figure3(cfg UtilityConfig) ([]UtilityPoint, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return utilitySweep(cfg, nil, []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}, 0, 6)
}

// utilitySweep runs the PG/optimistic/pessimistic comparison over either a
// k-sweep (fixed p) or a p-sweep (fixed k). The x-positions are measured on
// GOMAXPROCS goroutines, each from a private RNG split off cfg.Seed, so the
// figure is reproducible for a fixed seed at any GOMAXPROCS.
func utilitySweep(cfg UtilityConfig, ks []int, ps []float64, fixedP float64, fixedK int) ([]UtilityPoint, error) {
	d, err := sal.Generate(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	classOf, err := sal.Categorizer(cfg.M)
	if err != nil {
		return nil, err
	}
	points := len(ks)
	if ks == nil {
		points = len(ps)
	}
	out := make([]UtilityPoint, points)
	err = par.ForEachErr(0, points, func(i int) error {
		rng := rand.New(rand.NewSource(par.SplitSeed(cfg.Seed+1, i)))
		k, p := fixedK, fixedP
		if ks != nil {
			k = ks[i]
		} else {
			p = ps[i]
		}
		pt, err := utilityPoint(d, classOf, cfg, k, p, rng)
		if err != nil {
			return err
		}
		if ks != nil {
			pt.X = float64(k)
		} else {
			pt.X = p
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// utilityPoint measures one (k, p) configuration, averaged over cfg.Reps.
func utilityPoint(d *dataset.Table, classOf func(int32) int, cfg UtilityConfig, k int, p float64, rng *rand.Rand) (UtilityPoint, error) {
	numClasses := cfg.M
	var pt UtilityPoint
	for rep := 0; rep < cfg.Reps; rep++ {
		// PG: publish with kd, the harness's Phase-2 algorithm (DESIGN.md
		// §3), and mine with reconstruction weighting.
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: k, P: p, Algorithm: pg.KD, Seed: rng.Int63(), Metrics: metrics,
		})
		if err != nil {
			return pt, err
		}
		pgClf, err := mining.TrainPG(pub, classOf, numClasses, mining.Config{})
		if err != nil {
			return pt, err
		}
		pt.ErrPG += 1 - mining.Accuracy(pgClf.Predict, d, classOf)

		// Optimistic: a clean random subset of size |D|/k.
		sub, err := d.RandomSubset(d.Len()/k, rng)
		if err != nil {
			return pt, err
		}
		opt, err := mining.TrainTable(sub, classOf, numClasses, mining.Config{})
		if err != nil {
			return pt, err
		}
		pt.ErrOpt += 1 - mining.Accuracy(opt.Predict, d, classOf)

		// Pessimistic: the same-size subset with totally randomized
		// sensitive values (retention probability 0).
		randomized := sub.Clone()
		for i := 0; i < randomized.Len(); i++ {
			randomized.SetSensitive(i, int32(rng.Intn(randomized.Schema.SensitiveDomain())))
		}
		pes, err := mining.TrainTable(randomized, classOf, numClasses, mining.Config{})
		if err != nil {
			return pt, err
		}
		pt.ErrPes += 1 - mining.Accuracy(pes.Predict, d, classOf)
	}
	pt.ErrPG /= float64(cfg.Reps)
	pt.ErrOpt /= float64(cfg.Reps)
	pt.ErrPes /= float64(cfg.Reps)
	return pt, nil
}

// RenderUtility formats a utility series like the paper's figures: one row
// per competitor, classification error per x-position.
func RenderUtility(points []UtilityPoint, xName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xName)
	for _, p := range points {
		if xName == "k" {
			fmt.Fprintf(&b, " %7.0f", p.X)
		} else {
			fmt.Fprintf(&b, " %7.2f", p.X)
		}
	}
	b.WriteByte('\n')
	row := func(name string, get func(UtilityPoint) float64) {
		fmt.Fprintf(&b, "%-12s", name)
		for _, p := range points {
			fmt.Fprintf(&b, " %6.2f%%", get(p)*100)
		}
		b.WriteByte('\n')
	}
	row("PG", func(p UtilityPoint) float64 { return p.ErrPG })
	row("optimistic", func(p UtilityPoint) float64 { return p.ErrOpt })
	row("pessimistic", func(p UtilityPoint) float64 { return p.ErrPes })
	return b.String()
}
