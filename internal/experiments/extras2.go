package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/mining"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
)

// QueryUtilityRow summarizes COUNT-estimation accuracy for one query class
// (Extra E5): relative-error quantiles of the corrected PG estimator and of
// the naive (perturbation-ignoring) estimator over a random workload.
type QueryUtilityRow struct {
	Class           string
	Queries         int
	MedianRel       float64
	P90Rel          float64
	NaiveMedianRel  float64
	TruthMedianSize float64
}

// QueryUtility measures aggregate COUNT estimation over a SAL publication:
// QI-only range queries and QI+sensitive queries, corrected vs naive.
func QueryUtility(n int, seed int64, k int, p float64) ([]QueryUtilityRow, error) {
	if n <= 0 {
		n = 50000
	}
	d, err := sal.Generate(n, seed)
	if err != nil {
		return nil, err
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
		K: k, P: p, Algorithm: pg.KD, Seed: seed, Metrics: metrics,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 100))
	classes := []struct {
		name string
		cfg  query.WorkloadConfig
	}{
		{"qi-only (2 attrs, 50%)", query.WorkloadConfig{
			Queries: 60, QIFraction: 0.5, RestrictAttrs: 2, Rng: rng}},
		{"qi+sensitive (1 attr, 50% / 40%)", query.WorkloadConfig{
			Queries: 60, QIFraction: 0.5, RestrictAttrs: 1, SensitiveFraction: 0.4, Rng: rng}},
	}
	var out []QueryUtilityRow
	for _, c := range classes {
		qs, err := query.Workload(d.Schema, c.cfg)
		if err != nil {
			return nil, err
		}
		var rels, naives, sizes []float64
		for _, q := range qs {
			truth, err := query.TrueCount(d, q)
			if err != nil {
				return nil, err
			}
			if truth < n/100 {
				continue // skip sub-1% selectivities
			}
			est, err := query.Estimate(pub, q)
			if err != nil {
				return nil, err
			}
			naive, err := query.EstimateNaive(pub, q)
			if err != nil {
				return nil, err
			}
			rels = append(rels, math.Abs(est-float64(truth))/float64(truth))
			naives = append(naives, math.Abs(naive-float64(truth))/float64(truth))
			sizes = append(sizes, float64(truth))
		}
		if len(rels) == 0 {
			return nil, fmt.Errorf("experiments: query class %q produced no usable queries", c.name)
		}
		sort.Float64s(rels)
		sort.Float64s(naives)
		sort.Float64s(sizes)
		out = append(out, QueryUtilityRow{
			Class:           c.name,
			Queries:         len(rels),
			MedianRel:       rels[len(rels)/2],
			P90Rel:          rels[len(rels)*9/10],
			NaiveMedianRel:  naives[len(naives)/2],
			TruthMedianSize: sizes[len(sizes)/2],
		})
	}
	return out, nil
}

// RenderQueryUtility formats the E5 rows.
func RenderQueryUtility(rows []QueryUtilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %4s %10s %8s %12s %10s\n",
		"query class", "n", "medianRel", "p90Rel", "naiveMedian", "medCount")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %4d %9.1f%% %7.1f%% %11.1f%% %10.0f\n",
			r.Class, r.Queries, r.MedianRel*100, r.P90Rel*100,
			r.NaiveMedianRel*100, r.TruthMedianSize)
	}
	return b.String()
}

// RepubRow is one release-count of the re-publication experiment (Extra E6).
type RepubRow struct {
	T            int
	MaxGrowth    float64 // worst observed composed growth
	GrowthBound  float64 // analytic composition bound
	PlannedP     float64 // per-release p keeping the bound under target
	TargetGrowth float64
}

// Republication measures how adversary confidence accumulates over repeated
// releases (fresh PG each time) under worst-case corruption, against the
// composition bound, and reports the per-release retention probability that
// would keep T releases under the single-release Δ target.
func Republication(trials int, seed int64, target float64) ([]RepubRow, error) {
	if trials <= 0 {
		trials = 60
	}
	if target <= 0 {
		target = 0.3
	}
	d := dataset.Hospital()
	ext, err := attack.NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		return nil, err
	}
	domain := d.Schema.SensitiveDomain()
	const p, k = 0.3, 2
	lambda := 1 / float64(domain)
	rng := rand.New(rand.NewSource(seed))
	owners := []int{0, 1, 2, 3, 5, 6, 7, 8}
	hiers := hierarchy.Hospital(d.Schema)

	var out []RepubRow
	for _, T := range []int{1, 2, 4, 8} {
		bound, err := repub.ComposedGrowthBound(T, p, lambda, k, domain)
		if err != nil {
			return nil, err
		}
		planned, err := repub.MaxRetentionForSeries(T, lambda, target, k, domain)
		if err != nil {
			return nil, err
		}
		exts := make([]*attack.External, T)
		for t := range exts {
			exts[t] = ext
		}
		maxGrowth := 0.0
		for trial := 0; trial < trials; trial++ {
			releases := make([]*pg.Published, T)
			for t := range releases {
				releases[t], err = pg.Publish(d, hiers, pg.Config{K: k, P: p, Seed: rng.Int63(), Metrics: metrics})
				if err != nil {
					return nil, err
				}
			}
			victim := owners[rng.Intn(len(owners))]
			adv := attack.Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{}}
			for id := 0; id < ext.Len(); id++ {
				if id != victim {
					adv.Corrupted[id] = true
				}
			}
			truth := d.Sensitive(ext.RowOf(victim))
			q, err := privacy.ExactReconstruction(domain, truth)
			if err != nil {
				return nil, err
			}
			_, prior, posts, err := repub.MultiReleaseAttack(releases, exts, victim, adv, q)
			if err != nil {
				return nil, err
			}
			if g := posts[T-1] - prior; g > maxGrowth {
				maxGrowth = g
			}
		}
		out = append(out, RepubRow{
			T: T, MaxGrowth: maxGrowth, GrowthBound: bound,
			PlannedP: planned, TargetGrowth: target,
		})
	}
	return out, nil
}

// RenderRepublication formats the E6 rows.
func RenderRepublication(rows []RepubRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %12s %12s %22s\n", "T", "maxGrowth", "bound", "p for composed growth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %12.4f %12.4f %15.4f (<=%.2f)\n",
			r.T, r.MaxGrowth, r.GrowthBound, r.PlannedP, r.TargetGrowth)
	}
	return b.String()
}

// MinerRow compares the two mining modalities on the same publication
// (Extra E7): the honest reconstruction tree and naive Bayes.
type MinerRow struct {
	P       float64
	ErrTree float64
	ErrNB   float64
	ErrOpt  float64
}

// MinerComparison trains both miners across retention probabilities.
func MinerComparison(n int, seed int64, k int, ps []float64) ([]MinerRow, error) {
	if n <= 0 {
		n = 30000
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
	rng := rand.New(rand.NewSource(seed + 7))
	sub, err := d.RandomSubset(d.Len()/k, rng)
	if err != nil {
		return nil, err
	}
	opt, err := mining.TrainTable(sub, classOf, 2, mining.Config{})
	if err != nil {
		return nil, err
	}
	errOpt := 1 - mining.Accuracy(opt.Predict, d, classOf)

	var out []MinerRow
	for _, p := range ps {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{
			K: k, P: p, Algorithm: pg.KD, Seed: seed, Metrics: metrics,
		})
		if err != nil {
			return nil, err
		}
		tree, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
		if err != nil {
			return nil, err
		}
		nb, err := mining.TrainNBPG(pub, classOf, 2, mining.NBConfig{})
		if err != nil {
			return nil, err
		}
		out = append(out, MinerRow{
			P:       p,
			ErrTree: 1 - mining.Accuracy(tree.Predict, d, classOf),
			ErrNB:   1 - mining.Accuracy(nb.Predict, d, classOf),
			ErrOpt:  errOpt,
		})
	}
	return out, nil
}

// RenderMiners formats the E7 rows.
func RenderMiners(rows []MinerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "p", "err(tree)", "err(NB)", "err(opt)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %11.2f%% %11.2f%% %11.2f%%\n",
			r.P, r.ErrTree*100, r.ErrNB*100, r.ErrOpt*100)
	}
	return b.String()
}
