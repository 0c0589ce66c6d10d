package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pgpub/internal/dp"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
)

// DPUtilityRow is one ε level of the DP-vs-PG utility study: the accuracy of
// the Laplace-noised served answer against the ground truth, next to the
// noise-free PG estimator it wraps. The gap between DPMedianRel and
// PGMedianRel is the price of the ε-budget at that level.
type DPUtilityRow struct {
	Epsilon        float64 `json:"epsilon"`
	DPMedianRel    float64 `json:"dp_median_rel"`
	DPP90Rel       float64 `json:"dp_p90_rel"`
	MedianAbsNoise float64 `json:"median_abs_noise"`
}

// DPReport is the machine-readable output of the dp experiment
// (pgbench -exp dp -benchout BENCH_pg.json). Identity fields mirror
// PerfReport's workload identity; PG rows are the shared noise-free baseline
// every ε level is compared against.
type DPReport struct {
	N           int            `json:"n"`
	Seed        int64          `json:"seed"`
	K           int            `json:"k"`
	P           float64        `json:"p"`
	DPSeed      int64          `json:"dp_seed"`
	Queries     int            `json:"queries"`
	PGMedianRel float64        `json:"pg_median_rel"`
	PGP90Rel    float64        `json:"pg_p90_rel"`
	TruthMedian float64        `json:"truth_median"`
	Rows        []DPUtilityRow `json:"rows"`
}

// DPUtility measures what differential-privacy noising costs on top of PG's
// own estimation error. It publishes one SAL release, draws the E5 QI-only
// COUNT workload, then answers every query at each ε exactly as the server
// would: the PG-corrected estimate plus Laplace noise at scale 1/ε, drawn
// from the deterministic mechanism keyed by (per-ε API key, canonical query
// encoding). Per-ε API keys decorrelate the noise streams across ε levels,
// so each row is an independent sample of the mechanism.
func DPUtility(n int, seed int64, k int, p float64, epsilons []float64) (*DPReport, error) {
	if n <= 0 {
		n = 100000
	}
	if len(epsilons) == 0 {
		epsilons = []float64{0.05, 0.1, 0.25, 0.5, 1, 2}
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
	qs, err := query.Workload(d.Schema, query.WorkloadConfig{
		Queries: 120, QIFraction: 0.5, RestrictAttrs: 2, Rng: rng,
	})
	if err != nil {
		return nil, err
	}

	// Shared baseline: truth, PG estimate, and the canonical query key the
	// server's mechanism would derive for each usable query.
	type baseQ struct {
		truth float64
		est   float64
		key   string
	}
	var base []baseQ
	var pgRels, sizes []float64
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
		base = append(base, baseQ{
			truth: float64(truth),
			est:   est,
			key:   serve.QueryKey(d.Schema, "count", q, nil),
		})
		pgRels = append(pgRels, math.Abs(est-float64(truth))/float64(truth))
		sizes = append(sizes, float64(truth))
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("experiments: dp workload produced no usable queries")
	}
	sort.Float64s(pgRels)
	sort.Float64s(sizes)

	dpSeed := seed + 1000
	rep := &DPReport{
		N: n, Seed: seed, K: k, P: p, DPSeed: dpSeed,
		Queries:     len(base),
		PGMedianRel: pgRels[len(pgRels)/2],
		PGP90Rel:    pgRels[len(pgRels)*9/10],
		TruthMedian: sizes[len(sizes)/2],
	}
	mech := dp.Mechanism{Seed: dpSeed}
	for _, eps := range epsilons {
		apiKey := fmt.Sprintf("analyst-eps-%g", eps)
		var rels, absNoise []float64
		for _, b := range base {
			noise, _ := mech.Answer(apiKey, b.key, "count", 0, 0, 0, eps, 1) // the draw alone; a count is never refused
			rels = append(rels, math.Abs(b.est+noise-b.truth)/b.truth)
			absNoise = append(absNoise, math.Abs(noise))
		}
		sort.Float64s(rels)
		sort.Float64s(absNoise)
		rep.Rows = append(rep.Rows, DPUtilityRow{
			Epsilon:        eps,
			DPMedianRel:    rels[len(rels)/2],
			DPP90Rel:       rels[len(rels)*9/10],
			MedianAbsNoise: absNoise[len(absNoise)/2],
		})
	}
	return rep, nil
}

// RenderDP formats the DP-vs-PG utility rows.
func RenderDP(rep *DPReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d queries kept (truth >= 1%%), median truth %.0f; noise-free PG baseline: median %.1f%%, p90 %.1f%%\n",
		rep.Queries, rep.TruthMedian, rep.PGMedianRel*100, rep.PGP90Rel*100)
	fmt.Fprintf(&b, "%-8s %12s %10s %14s\n", "epsilon", "dpMedian", "dpP90", "medAbsNoise")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-8g %11.1f%% %9.1f%% %14.2f\n",
			r.Epsilon, r.DPMedianRel*100, r.DPP90Rel*100, r.MedianAbsNoise)
	}
	return b.String()
}
