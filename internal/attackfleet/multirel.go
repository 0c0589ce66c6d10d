package attackfleet

import (
	"fmt"
	"math/rand"
	"sort"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
)

// This file is the multi-release adversary: an attacker who retains every
// release of a re-publication chain (pg.Republish over evolving microdata),
// links the victim's crucial tuple in each release through the owner IDs
// that survive deltas, composes the per-release observations with
// repub.MultiReleaseAttack, and checks the composed breach growth of every
// T-release prefix against repub.ComposedGrowthBound — the accounting the
// release-chain blocks (snapshot.ChainMetadata) announce. The run is
// byte-identical across worker counts: every random choice descends from
// per-victim seed splits, and results land in pre-allocated slots.

// multirelSeedStream offsets the multi-release experiment's seed split away
// from the streams other consumers derive from the same root: pg.Publish
// owns 0 and 1, the fleet owns 2.
const multirelSeedStream = 3

// MultiReleaseConfig parameterizes a multi-release attack run.
type MultiReleaseConfig struct {
	// N is the base SAL microdata cardinality (default 8000).
	N int
	// Seed drives the chain (publication randomness, deltas) and the
	// adversary sample; the experiment stream is split from
	// par.SplitSeed(Seed, 3), disjoint from pg.Publish's and the fleet's.
	Seed int64
	// K, P, Algorithm describe every release of the chain (parameters are
	// constant across a chain by contract). Defaults: K=6, P=0.3, kd.
	K         int
	P         float64
	Algorithm string
	// Releases is the chain length T (default 4). Release 0 is the base
	// publish; each later release applies a Churn-row delta first.
	Releases int
	// Churn is the per-release turnover: each delta deletes Churn rows of
	// the current table and inserts Churn fresh ones (default N/50, min 1).
	Churn int
	// Victims is the number of attacked owners, sampled from the
	// individuals alive in every release (default 32).
	Victims int
	// Fractions lists the corruption fractions attacked at every prefix
	// length (default 0, 0.5, 1).
	Fractions []float64
	// Lambda bounds the adversary prior's skew (default 0.1).
	Lambda float64
	// Workers is the fan-out parallelism; the report is byte-identical for
	// every value.
	Workers int
	// Metrics optionally receives the fleet.* instrumentation.
	Metrics *obs.Registry
}

// ReleasePoint aggregates every adversary's composed estimate after the
// first Releases releases (a prefix of the chain), over all victims and
// corruption fractions.
type ReleasePoint struct {
	// Releases is the prefix length T.
	Releases int `json:"releases"`
	// MaxH is the largest per-release ownership probability h observed in
	// release T-1 (the prefix's newest release).
	MaxH float64 `json:"max_h"`
	// MaxPosterior and MeanPosterior summarize the composed posterior
	// confidence about Q after T releases.
	MaxPosterior  float64 `json:"max_posterior"`
	MeanPosterior float64 `json:"mean_posterior"`
	// MaxGrowth is the largest composed posterior-minus-prior growth.
	MaxGrowth float64 `json:"max_growth"`
	// Bound is the composed growth bound Δ_T the chain's release T-1
	// announces (repub.ComposedGrowthBound).
	Bound float64 `json:"composed_bound"`
	// Violations counts composed estimates that exceeded Bound.
	Violations int `json:"violations"`
}

// MultiReleaseReport is the `repub` block emitted into BENCH_pg.json: the
// breach-vs-release-count curve. Everything in it is byte-identical across
// runs and worker counts for a fixed config.
type MultiReleaseReport struct {
	N         int     `json:"n"`
	Releases  int     `json:"releases"`
	Churn     int     `json:"churn"`
	K         int     `json:"k"`
	P         float64 `json:"p"`
	Algorithm string  `json:"algorithm"`
	Seed      int64   `json:"seed"`
	Victims   int     `json:"victims"`
	Lambda    float64 `json:"lambda"`
	// Rows lists each release's published row count |D*_t|.
	Rows []int `json:"rows"`
	// Fractions lists the corruption fractions attacked.
	Fractions []float64 `json:"fractions"`
	// HBound is the per-release ownership bound h⊤ (Inequality 20);
	// OddsRatioBound is the per-release odds-ratio bound R the composed
	// accounting is built from.
	HBound         float64 `json:"h_bound"`
	OddsRatioBound float64 `json:"odds_ratio_bound"`
	// Curve is the breach-vs-release-count curve, one point per prefix.
	Curve []ReleasePoint `json:"curve"`
	// Violations totals the bound violations across the curve.
	Violations int `json:"violations"`
}

// multirelOutcome is one (victim, fraction) adversary's trajectory: the
// per-release h and the composed posterior/growth after every prefix.
type multirelOutcome struct {
	h         []float64 // per-release ownership probability
	posterior []float64 // composed posterior after releases[:t+1]
	growth    []float64 // posterior[t] - prior
}

// MultiRelease publishes a deterministic re-publication chain in-process,
// attacks every release with chain-retaining adversaries, and aggregates
// the composed breach curve. Like Run, a bound violation is reported, not
// returned as an error.
func MultiRelease(cfg MultiReleaseConfig) (*MultiReleaseReport, error) {
	if cfg.N <= 0 {
		cfg.N = 8000
	}
	if cfg.Releases <= 0 {
		cfg.Releases = 4
	}
	if cfg.Churn <= 0 {
		cfg.Churn = cfg.N / 50
		if cfg.Churn < 1 {
			cfg.Churn = 1
		}
	}
	if cfg.Churn >= cfg.N {
		return nil, fmt.Errorf("attackfleet: churn %d must stay below the base cardinality %d", cfg.Churn, cfg.N)
	}
	if cfg.Victims <= 0 {
		cfg.Victims = 32
	}
	if len(cfg.Fractions) == 0 {
		cfg.Fractions = []float64{0, 0.5, 1}
	}
	for _, f := range cfg.Fractions {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("attackfleet: corruption fraction %v outside [0,1]", f)
		}
	}
	if cfg.K <= 0 {
		cfg.K = 6
	}
	if cfg.P <= 0 {
		cfg.P = 0.3
	}
	if cfg.P >= 1 {
		return nil, fmt.Errorf("attackfleet: retention probability %v must stay below 1 (the composed bound diverges)", cfg.P)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = pg.KD.String()
	}
	alg, err := pg.ParseAlgorithm(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 0.1
	}
	cfg.Workers = par.N(cfg.Workers)

	// The chain: release 0 is the base publish; each later release applies
	// a churn delta drawn from its own seed stream, then republishes under
	// the chain's deterministic per-release seed schedule.
	d, err := sal.Generate(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	hiers := sal.Hierarchies(d.Schema)
	root := par.SplitSeed(cfg.Seed, multirelSeedStream)
	ch := pg.NewChain(d, hiers)
	pcfg := pg.Config{K: cfg.K, P: cfg.P, Algorithm: alg, Seed: cfg.Seed, Workers: cfg.Workers, Metrics: cfg.Metrics}
	releases := make([]*pg.Published, cfg.Releases)
	tables := make([]*dataset.Table, cfg.Releases)
	for t := 0; t < cfg.Releases; t++ {
		var dl pg.Delta
		if t > 0 {
			if dl, err = churnDelta(ch.Table(), cfg.Churn, par.SplitSeed(root, t)); err != nil {
				return nil, err
			}
		}
		if releases[t], err = pg.Republish(ch, dl, pcfg); err != nil {
			return nil, fmt.Errorf("attackfleet: release %d: %w", t, err)
		}
		tables[t] = ch.Table()
	}

	// ℰ per release: one voter list over every individual ever alive (owner
	// IDs are contiguous and survive deltas), with per-release ownership.
	// A deleted owner stays in ℰ — the adversary knows the identity — but
	// is extraneous in later releases.
	exts, err := chainExternals(tables)
	if err != nil {
		return nil, err
	}

	domain := d.Schema.SensitiveDomain()
	rep := &MultiReleaseReport{
		N: cfg.N, Releases: cfg.Releases, Churn: cfg.Churn,
		K: cfg.K, P: cfg.P, Algorithm: cfg.Algorithm, Seed: cfg.Seed,
		Lambda: cfg.Lambda, Fractions: cfg.Fractions,
		HBound:         privacy.HTop(cfg.P, cfg.Lambda, cfg.K, domain),
		OddsRatioBound: repub.OddsRatioBound(cfg.P, cfg.Lambda, cfg.K, domain),
	}
	for _, pub := range releases {
		rep.Rows = append(rep.Rows, pub.Len())
	}

	met := struct{ victims, violations *obs.Counter }{
		victims:    cfg.Metrics.Counter("fleet.victims"),
		violations: cfg.Metrics.Counter("fleet.violations"),
	}

	// Victims: a seed-determined sample of the owners alive in every
	// release — only they can be linked across the whole chain.
	var alive []int
	for id := 0; id < exts[0].Len(); id++ {
		ok := true
		for _, ext := range exts {
			if ext.IsExtraneous(id) {
				ok = false
				break
			}
		}
		if ok {
			alive = append(alive, id)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("attackfleet: no owner survives all %d releases", cfg.Releases)
	}
	if cfg.Victims > len(alive) {
		cfg.Victims = len(alive)
	}
	rep.Victims = cfg.Victims
	vrng := rand.New(rand.NewSource(par.SplitSeed(root, 1<<20)))
	picks := vrng.Perm(len(alive))[:cfg.Victims]
	sort.Ints(picks)
	victims := make([]int, cfg.Victims)
	for i, pi := range picks {
		victims[i] = alive[pi]
	}

	// The fan-out: one chain-retaining adversary per (victim, fraction),
	// results written to dedicated slots so aggregation order never depends
	// on scheduling.
	outcomes := make([][]multirelOutcome, cfg.Victims)
	err = par.ForEachErr(cfg.Workers, cfg.Victims, func(i int) error {
		out, err := attackChainVictim(exts, releases, victims[i], i, root, cfg, domain)
		if err != nil {
			return fmt.Errorf("victim %d: %w", victims[i], err)
		}
		outcomes[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	met.victims.Add(int64(cfg.Victims))

	// Aggregate the prefix curve and check every composed estimate against
	// the chain's announced accounting.
	const tol = 1e-9
	for T := 1; T <= cfg.Releases; T++ {
		pt := ReleasePoint{Releases: T}
		if pt.Bound, err = repub.ComposedGrowthBound(T, cfg.P, cfg.Lambda, cfg.K, domain); err != nil {
			return nil, err
		}
		var sum float64
		var count int
		for _, vo := range outcomes {
			for _, o := range vo {
				if h := o.h[T-1]; h > pt.MaxH {
					pt.MaxH = h
				}
				post, growth := o.posterior[T-1], o.growth[T-1]
				sum += post
				count++
				if post > pt.MaxPosterior {
					pt.MaxPosterior = post
				}
				if growth > pt.MaxGrowth {
					pt.MaxGrowth = growth
				}
				if growth > pt.Bound+tol || o.h[T-1] > rep.HBound+tol {
					pt.Violations++
				}
			}
		}
		pt.MeanPosterior = sum / float64(count)
		rep.Violations += pt.Violations
		rep.Curve = append(rep.Curve, pt)
	}
	met.violations.Add(int64(rep.Violations))
	return rep, nil
}

// churnDelta draws a deterministic turnover delta against the current
// table: churn distinct row deletions and churn fresh SAL rows.
func churnDelta(cur *dataset.Table, churn int, seed int64) (pg.Delta, error) {
	rng := rand.New(rand.NewSource(seed))
	if churn >= cur.Len() {
		return pg.Delta{}, fmt.Errorf("attackfleet: churn %d would delete the whole %d-row table", churn, cur.Len())
	}
	perm := rng.Perm(cur.Len())[:churn]
	sort.Ints(perm)
	ins, err := sal.Generate(churn, rng.Int63())
	if err != nil {
		return pg.Delta{}, err
	}
	return pg.Delta{Deletes: perm, Inserts: ins}, nil
}

// chainExternals builds one External per release over the union voter list:
// QI vectors indexed by owner ID for every individual that ever owned a row
// anywhere in the chain. Owner IDs are assigned contiguously by ApplyDelta,
// so the union is a dense [0, maxOwner] slice.
func chainExternals(tables []*dataset.Table) ([]*attack.External, error) {
	maxOwner := -1
	for _, t := range tables {
		for i := 0; i < t.Len(); i++ {
			if o := t.Owner(i); o > maxOwner {
				maxOwner = o
			}
		}
	}
	voterQI := make([][]int32, maxOwner+1)
	for _, t := range tables {
		for i := 0; i < t.Len(); i++ {
			o := t.Owner(i)
			if voterQI[o] == nil {
				voterQI[o] = t.QIVector(i)
			}
		}
	}
	for id, qi := range voterQI {
		if qi == nil {
			return nil, fmt.Errorf("attackfleet: owner ID %d never appears in the chain (non-contiguous IDs)", id)
		}
	}
	exts := make([]*attack.External, len(tables))
	for t, tab := range tables {
		ext, err := attack.NewExternal(tab, voterQI)
		if err != nil {
			return nil, fmt.Errorf("attackfleet: release %d external: %w", t, err)
		}
		exts[t] = ext
	}
	return exts, nil
}

// attackChainVictim runs one victim's chain-retaining adversaries, one per
// corruption fraction. The corruption set is drawn over the union of the
// victim's per-release candidate sets — the only individuals whose status
// can move the posterior — and the composed posterior is re-derived after
// every prefix.
func attackChainVictim(exts []*attack.External, releases []*pg.Published, victim, slot int, root int64, cfg MultiReleaseConfig, domain int) ([]multirelOutcome, error) {
	truth, ok := exts[len(exts)-1].SensitiveOf(victim)
	if !ok {
		return nil, fmt.Errorf("victim is not alive in the final release")
	}

	// The union candidate set across releases, from the crucial boxes.
	seen := map[int]bool{}
	var union []int
	for t, pub := range releases {
		ct, ok := pub.FindCrucial(exts[t].QIOf(victim))
		if !ok {
			return nil, fmt.Errorf("no crucial tuple in release %d", t)
		}
		for _, id := range attack.CandidatesIn(exts[t], ct.Box, victim) {
			if !seen[id] {
				seen[id] = true
				union = append(union, id)
			}
		}
	}
	sort.Ints(union)

	vRoot := par.SplitSeed(root, 1<<21+slot)
	out := make([]multirelOutcome, len(cfg.Fractions))
	for fi, frac := range cfg.Fractions {
		rng := rand.New(rand.NewSource(par.SplitSeed(vRoot, fi)))
		// planFor with y = truth: the adversary targets a predicate
		// containing the true value, the worst case for composed growth.
		adv, q, err := planFor(union, frac, cfg.Lambda, domain, truth, truth, rng)
		if err != nil {
			return nil, err
		}
		obsn, prior, posts, err := repub.MultiReleaseAttack(releases, exts, victim, adv, q)
		if err != nil {
			return nil, err
		}
		o := multirelOutcome{
			h:         make([]float64, len(releases)),
			posterior: posts,
			growth:    make([]float64, len(releases)),
		}
		for t, ob := range obsn {
			o.h[t] = ob.H
			o.growth[t] = posts[t] - prior
		}
		out[fi] = o
	}
	return out, nil
}
