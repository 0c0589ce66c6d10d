package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/mining"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// SALVoters builds an external database ℰ for a SAL table: every microdata
// owner plus extraFrac·|D| extraneous individuals with random QI vectors
// (people in the voter list but not in the hospital of Section I's analogy).
func SALVoters(d *dataset.Table, extraFrac float64, rng *rand.Rand) [][]int32 {
	voters := make([][]int32, 0, d.Len()+int(float64(d.Len())*extraFrac))
	for i := 0; i < d.Len(); i++ {
		voters = append(voters, d.QIVector(i))
	}
	extras := int(float64(d.Len()) * extraFrac)
	for e := 0; e < extras; e++ {
		v := make([]int32, d.Schema.D())
		for j, a := range d.Schema.QI {
			v[j] = int32(rng.Intn(a.Size()))
		}
		voters = append(voters, v)
	}
	return voters
}

// BreachConfig parameterizes the Monte-Carlo breach validation (Extra E1).
type BreachConfig struct {
	// N is the SAL cardinality for the SAL scenario (default 2000; the
	// attack is O(|E|) per trial).
	N int
	// Trials per scenario (default 200).
	Trials int
	// Seed drives all randomness; scenario i runs under
	// par.SplitSeed(Seed, i).
	Seed int64
	// Workers bounds the goroutines running each scenario's trials (0 =
	// GOMAXPROCS). The result is identical for every value.
	Workers int
}

// BreachScenario is one validated setting.
type BreachScenario struct {
	Name   string
	Result *attack.MonteCarloResult
}

// BreachValidation runs the empirical validation of Theorems 2 and 3 on the
// hospital example and a SAL sample, across corruption levels up to the
// worst case |C| = |E| - 1.
func BreachValidation(cfg BreachConfig) ([]BreachScenario, error) {
	if cfg.N <= 0 {
		cfg.N = 2000
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 200
	}
	var out []BreachScenario

	// Hospital scenarios.
	hosp := dataset.Hospital()
	hospHiers := hierarchy.Hospital(hosp.Schema)
	for i, corrupt := range []float64{0, 0.5, 1} {
		res, err := attack.MonteCarlo(hosp, dataset.HospitalVoterQI(), hospHiers, attack.MonteCarloConfig{
			PG:              pg.Config{K: 2, P: 0.3, Metrics: metrics},
			Trials:          cfg.Trials,
			Lambda:          Lambda,
			CorruptFraction: corrupt,
			Seed:            par.SplitSeed(cfg.Seed, i),
			Workers:         cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BreachScenario{
			Name:   fmt.Sprintf("hospital k=2 p=0.3 corrupt=%.0f%%", corrupt*100),
			Result: res,
		})
	}

	// SAL scenario with extraneous individuals, worst-case corruption.
	d, err := sal.Generate(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	seed := par.SplitSeed(cfg.Seed, 3)
	voters := SALVoters(d, 0.1, rand.New(rand.NewSource(seed)))
	res, err := attack.MonteCarlo(d, voters, sal.Hierarchies(d.Schema), attack.MonteCarloConfig{
		PG:              pg.Config{K: 6, P: 0.3, Algorithm: pg.KD, Metrics: metrics},
		Trials:          cfg.Trials / 4,
		Lambda:          Lambda,
		CorruptFraction: 1,
		Seed:            seed,
		Workers:         cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, BreachScenario{Name: "sal k=6 p=0.3 corrupt=100%", Result: res})
	return out, nil
}

// RenderBreach formats breach-validation scenarios.
func RenderBreach(scenarios []BreachScenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %8s %8s %10s %9s %10s %9s %7s\n",
		"scenario", "maxH", "hBound", "maxPost", "rho2Bnd", "maxGrowth", "deltaBnd", "breach")
	for _, s := range scenarios {
		r := s.Result
		fmt.Fprintf(&b, "%-36s %8.4f %8.4f %10.4f %9.4f %10.4f %9.4f %7d\n",
			s.Name, r.MaxH, r.MaxHBound, r.MaxPosterior, r.Rho2Bound,
			r.MaxGrowth, r.DeltaBound, r.BreachesRho+r.BreachesDelta)
	}
	return b.String()
}

// AblationGenRow is one Phase-2 algorithm's footprint (Extra E2).
type AblationGenRow struct {
	Algorithm string
	Groups    int
	MinGroup  int
	AvgGroup  float64
	ErrPG     float64
}

// AblationGeneralizer compares Phase-2 algorithms (KD, TDS, FullDomain) at
// fixed k and p on the same SAL sample: published group counts and the PG
// tree's classification error.
func AblationGeneralizer(n int, seed int64, k int, p float64) ([]AblationGenRow, error) {
	if n <= 0 {
		n = 20000
	}
	d, err := sal.Generate(n, seed)
	if err != nil {
		return nil, err
	}
	classOf, err := sal.Categorizer(2)
	if err != nil {
		return nil, err
	}
	var out []AblationGenRow
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: k, P: p, Algorithm: alg, Seed: seed, Metrics: metrics,
		})
		if err != nil {
			return nil, err
		}
		clf, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
		if err != nil {
			return nil, err
		}
		row := AblationGenRow{
			Algorithm: alg.String(),
			Groups:    pub.Len(),
			ErrPG:     1 - mining.Accuracy(clf.Predict, d, classOf),
		}
		min, sum := int(^uint(0)>>1), 0
		for _, g := range pub.Columns().G {
			if int(g) < min {
				min = int(g)
			}
			sum += int(g)
		}
		row.MinGroup = min
		row.AvgGroup = float64(sum) / float64(pub.Len())
		out = append(out, row)
	}
	return out, nil
}

// RenderAblationGen formats the Phase-2 ablation.
func RenderAblationGen(rows []AblationGenRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %9s %9s %8s\n", "algorithm", "groups", "minG", "avgG", "errPG")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %9d %9.1f %7.2f%%\n",
			r.Algorithm, r.Groups, r.MinGroup, r.AvgGroup, r.ErrPG*100)
	}
	return b.String()
}

// AblationTreeRow compares reconstruction-on versus reconstruction-off
// mining of the same publication (Extra E3).
type AblationTreeRow struct {
	P                  float64
	ErrReconstructed   float64
	ErrUnreconstructed float64
}

// AblationReconstruction measures the value of the perturbation-inversion
// hook across retention probabilities.
func AblationReconstruction(n int, seed int64, k int, ps []float64) ([]AblationTreeRow, error) {
	if n <= 0 {
		n = 20000
	}
	if len(ps) == 0 {
		ps = []float64{0.15, 0.3, 0.45}
	}
	d, err := sal.Generate(n, seed)
	if err != nil {
		return nil, err
	}
	classOf, err := sal.Categorizer(2)
	if err != nil {
		return nil, err
	}
	identity := func(obs []float64) []float64 { return obs }
	var out []AblationTreeRow
	for _, p := range ps {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: k, P: p, Algorithm: pg.KD, Seed: seed, Metrics: metrics,
		})
		if err != nil {
			return nil, err
		}
		withRec, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
		if err != nil {
			return nil, err
		}
		withoutRec, err := mining.TrainPG(pub, classOf, 2, mining.Config{Adjust: identity})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationTreeRow{
			P:                  p,
			ErrReconstructed:   1 - mining.Accuracy(withRec.Predict, d, classOf),
			ErrUnreconstructed: 1 - mining.Accuracy(withoutRec.Predict, d, classOf),
		})
	}
	return out, nil
}

// RenderAblationTree formats the reconstruction ablation.
func RenderAblationTree(rows []AblationTreeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s\n", "p", "err(reconstr)", "err(raw)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %13.2f%% %13.2f%%\n",
			r.P, r.ErrReconstructed*100, r.ErrUnreconstructed*100)
	}
	return b.String()
}

// CardinalityRow is one microdata size of the cardinality sweep (Extra E4).
type CardinalityRow struct {
	N      int
	ErrPG  float64
	ErrOpt float64
}

// CardinalitySweep measures how PG utility approaches the optimistic
// yardstick as |D| grows — the paper's remark that perturbation-based
// approaches need a sizable microdata (end of Section IV).
func CardinalitySweep(sizes []int, seed int64, k int, p float64) ([]CardinalityRow, error) {
	if len(sizes) == 0 {
		sizes = []int{10000, 25000, 50000, 100000}
	}
	classOf, err := sal.Categorizer(2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []CardinalityRow
	for _, n := range sizes {
		d, err := sal.Generate(n, seed)
		if err != nil {
			return nil, err
		}
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: k, P: p, Algorithm: pg.KD, Seed: rng.Int63(), Metrics: metrics,
		})
		if err != nil {
			return nil, err
		}
		clf, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
		if err != nil {
			return nil, err
		}
		sub, err := d.RandomSubset(d.Len()/k, rng)
		if err != nil {
			return nil, err
		}
		opt, err := mining.TrainTable(sub, classOf, 2, mining.Config{})
		if err != nil {
			return nil, err
		}
		out = append(out, CardinalityRow{
			N:      n,
			ErrPG:  1 - mining.Accuracy(clf.Predict, d, classOf),
			ErrOpt: 1 - mining.Accuracy(opt.Predict, d, classOf),
		})
	}
	return out, nil
}

// RenderCardinality formats the cardinality sweep.
func RenderCardinality(rows []CardinalityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "|D|", "errPG", "errOpt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %9.2f%% %9.2f%%\n", r.N, r.ErrPG*100, r.ErrOpt*100)
	}
	return b.String()
}
