// Package attackfleet points the paper's threat model at the serving layer:
// a parallel, deterministic fleet of corruption-aided linking adversaries
// (Section V, Equations 13–19) that attacks a *served* PG snapshot through
// /v1/query alone and compares every measured breach probability against the
// Theorem 1–3 bounds. Two adversaries run side by side for every victim:
//
//	aware  knows the Phase-2 algorithm (transparent anonymization) and
//	       reconstructs the whole partition — by replaying the algorithm on
//	       ℰ (kd, full-domain) or by recovering the published cuts over
//	       HTTP (tds) — then reads the crucial tuple off the reconstruction.
//	probe  knows nothing about Phase 2 and reconstructs the victim's crucial
//	       box blind, by galloping box-membership fingerprints along every
//	       dimension.
//
// Both feed the same per-victim estimator the in-process attack uses
// (attack.Posterior), so over-HTTP and in-process breach estimates agree bit
// for bit.
package attackfleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// Config parameterizes a fleet run.
type Config struct {
	// BaseURL points the fleet at an already-running pgserve endpoint. The
	// served snapshot must have been published from sal.Generate(N, Seed)
	// microdata — the fleet regenerates ℰ locally from those parameters and
	// validates P/K/Algorithm against /v1/metadata. Empty means self-serve:
	// publish the snapshot in-process and serve it on a loopback port.
	BaseURL string
	// N is the SAL microdata cardinality (default 20000).
	N int
	// Seed drives every random choice: the publication (self-serve), the
	// victim sample and the per-victim adversary plans.
	// Fleet streams are split from par.SplitSeed(Seed, 2) — pg.Publish owns
	// shards 0 and 1 of the same root — so fleet and publication randomness
	// never collide.
	Seed int64
	// K, P, Algorithm describe the publication. Self-serve defaults:
	// K=6, P=0.3, Algorithm="kd". In BaseURL mode zero values are adopted
	// from the served metadata and non-zero values must match it.
	K         int
	P         float64
	Algorithm string
	// Shards attacks a sharded release through its coordinator. The shard
	// assignment is public (round-robin, pg.ShardOf), so the adversary runs
	// one reconstruction per shard over that shard's owners, pinning every
	// query to the victim's shard — a merged answer would sum box weights
	// across shards and smear the fingerprints. Zero means unsharded. In
	// BaseURL mode zero adopts the served shard count (a coordinator
	// announces it in /v1/metadata) and a non-zero value must match it;
	// self-serve spins up Shards in-process shard servers plus a
	// coordinator.
	Shards int
	// Victims is the number of attacked owners (default 48, capped at |ℰ|).
	Victims int
	// Fractions lists the corruption fractions of the breach curve
	// (default 0, 0.25, 0.5, 0.75, 1).
	Fractions []float64
	// Workers is the fleet's client-side parallelism. The report is
	// byte-identical for every value.
	Workers int
	// Lambda bounds the adversary prior's skew (default 0.1); Rho1 is the
	// prior-confidence threshold conditioning the Theorem-2 check (default
	// Lambda, mirroring the Monte-Carlo harness).
	Lambda float64
	Rho1   float64
	// Metrics optionally receives the fleet.* instrumentation.
	Metrics *obs.Registry
}

// CurvePoint is one corruption fraction of a breach curve, aggregated over
// the victim sample.
type CurvePoint struct {
	Fraction      float64 `json:"fraction"`
	MaxH          float64 `json:"max_h"`
	MaxPosterior  float64 `json:"max_posterior"`
	MeanPosterior float64 `json:"mean_posterior"`
	MaxGrowth     float64 `json:"max_growth"`
	Violations    int     `json:"violations"`
}

// ModeReport is one adversary mode's breach curve.
type ModeReport struct {
	Mode  string       `json:"mode"`
	Curve []CurvePoint `json:"curve"`
	// RecoveredCutNodes counts the cut nodes recovered over HTTP (aware mode
	// against tds only).
	RecoveredCutNodes int `json:"recovered_cut_nodes,omitempty"`
	// ProbeFallbacks counts gallop probes that fell back to a linear edge
	// scan (probe mode only).
	ProbeFallbacks int64 `json:"probe_fallbacks,omitempty"`
	// AgreeWithAware counts victims whose blind-probed crucial tuple matched
	// the aware reconstruction exactly (probe mode only). Disagreement is
	// not an error: observationally-equivalent box merges weaken the blind
	// adversary but keep its estimate a valid posterior under the bounds.
	AgreeWithAware int `json:"agree_with_aware,omitempty"`
}

// Report is the `fleet` block emitted into BENCH_pg.json. It is
// byte-identical across runs and worker counts for a fixed Config.
type Report struct {
	N          int          `json:"n"`
	Rows       int          `json:"rows"`
	Groups     int          `json:"groups"`
	K          int          `json:"k"`
	P          float64      `json:"p"`
	Algorithm  string       `json:"algorithm"`
	Seed       int64        `json:"seed"`
	Shards     int          `json:"shards,omitempty"`
	Victims    int          `json:"victims"`
	Lambda     float64      `json:"lambda"`
	Rho1       float64      `json:"rho1"`
	HBound     float64      `json:"h_bound"`
	Rho2Bound  float64      `json:"rho2_bound"`
	DeltaBound float64      `json:"delta_bound"`
	Queries    int64        `json:"queries"`
	Modes      []ModeReport `json:"modes"`
	Violations int          `json:"violations"`

	// details holds the per-victim outcomes for the in-process equivalence
	// tests.
	details []victimDetail
}

// outcome is one (victim, fraction, mode) breach estimate.
type outcome struct {
	h, prior, posterior, growth float64
}

type fracOutcome struct {
	fraction     float64
	aware, probe outcome
}

type victimDetail struct {
	victim int
	y      int32
	g      int // aware group size
	agree  bool
	fracs  []fracOutcome
}

// fleetShared is the run-wide state every runner feeds: the deterministic
// tallies the report carries and the fleet.* instrumentation.
type fleetShared struct {
	probeFallbacks atomic.Int64
	cutNodes       atomic.Int64

	met struct {
		victims        *obs.Counter
		violations     *obs.Counter
		probeFallbacks *obs.Counter
		cutNodes       *obs.Counter
	}
}

// runner is the per-victim attack machinery for one target: the whole
// release when unsharded, or one shard of it (pinned client, that shard's
// owners and partition model) against a coordinator. All fields are
// read-only during the fan-out except the shared atomics.
type runner struct {
	cl     *client
	ext    *attack.External
	schema *dataset.Schema
	hiers  []*hierarchy.Hierarchy
	domain int
	p      float64
	// owners lists the global IDs whose tuples this runner's target serves,
	// ascending — every candidate scan is restricted to it, because no other
	// identity can appear in a box the target answers for.
	owners []int
	// model is the aware adversary's reconstruction of the target's Phase-2
	// partition, with global IDs.
	model *groupModel

	sh *fleetShared
}

// Run executes the fleet and aggregates the breach curves. A bound violation
// is reported (Report.Violations > 0), not returned as an error — the caller
// decides how loudly to fail; errors mean the attack itself could not run
// (unreachable server, inconsistent answers, metadata conflicts).
func Run(cfg Config) (*Report, error) {
	if cfg.N <= 0 {
		cfg.N = 20000
	}
	if cfg.Victims <= 0 {
		cfg.Victims = 48
	}
	if len(cfg.Fractions) == 0 {
		cfg.Fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	for _, f := range cfg.Fractions {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("attackfleet: corruption fraction %v outside [0,1]", f)
		}
	}
	cfg.Workers = par.N(cfg.Workers)
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("attackfleet: shard count %d must be non-negative", cfg.Shards)
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 0.1
	}
	if cfg.Rho1 <= 0 {
		cfg.Rho1 = cfg.Lambda
	}
	selfServe := cfg.BaseURL == ""
	if selfServe {
		if cfg.K <= 0 {
			cfg.K = 6
		}
		if cfg.P <= 0 {
			cfg.P = 0.3
		}
		if cfg.Algorithm == "" {
			cfg.Algorithm = pg.KD.String()
		}
	}

	// ℰ: the adversary regenerates the public voter list locally.
	d, err := sal.Generate(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	hiers := sal.Hierarchies(d.Schema)
	voterQI := make([][]int32, d.Len())
	for i := range voterQI {
		voterQI[i] = d.QIVector(i)
	}
	ext, err := attack.NewExternal(d, voterQI)
	if err != nil {
		return nil, err
	}

	// Target: self-serve a fresh publication (one server, or a shard fleet
	// plus coordinator) or attach to BaseURL.
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	if selfServe && cfg.Shards > 0 {
		b, cleanup, err := selfServeSharded(d, hiers, cfg)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		base = b
	} else if selfServe {
		alg, err := pg.ParseAlgorithm(cfg.Algorithm)
		if err != nil {
			return nil, err
		}
		pub, err := pg.Publish(d, hiers, pg.Config{
			K: cfg.K, P: cfg.P, Algorithm: alg, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		hs, err := servePub(pub, cfg)
		if err != nil {
			return nil, err
		}
		defer hs.Close()
		base = "http://" + hs.Addr
	}

	cl := newClient(base, cfg.Workers, cfg.Metrics)
	md, err := cl.metadata()
	if err != nil {
		return nil, err
	}
	// The bounds below certify the guarantee the *served* release carries;
	// computing them for a different (p, k, algorithm) would check the wrong
	// theorem. Adopt unset values, reject conflicting ones.
	if cfg.K == 0 {
		cfg.K = md.K
	}
	if cfg.P == 0 {
		cfg.P = md.P
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = md.Algorithm
	}
	if cfg.K != md.K || cfg.P != md.P || cfg.Algorithm != md.Algorithm {
		return nil, fmt.Errorf(
			"attackfleet: config wants algorithm=%s p=%v k=%d but the served release is algorithm=%s p=%v k=%d",
			cfg.Algorithm, cfg.P, cfg.K, md.Algorithm, md.P, md.K)
	}
	// A coordinator announces its shard count; a plain server announces none.
	// The per-shard reconstruction and query pinning only make sense against
	// the former, so the two must agree.
	if cfg.Shards == 0 {
		cfg.Shards = md.Shards
	}
	if cfg.Shards != md.Shards {
		return nil, fmt.Errorf(
			"attackfleet: config wants %d shards but the served release reports %d", cfg.Shards, md.Shards)
	}
	if _, err := pg.ParseAlgorithm(cfg.Algorithm); err != nil {
		return nil, err
	}
	if cfg.P <= 0 {
		return nil, fmt.Errorf("attackfleet: retention probability %v must be positive (COUNT inversion)", cfg.P)
	}

	domain := d.Schema.SensitiveDomain()
	rep := &Report{
		N: cfg.N, Rows: md.Rows, Groups: md.Groups, K: cfg.K, P: cfg.P,
		Algorithm: cfg.Algorithm, Seed: cfg.Seed, Shards: cfg.Shards,
		Lambda: cfg.Lambda, Rho1: cfg.Rho1,
	}
	rep.HBound = privacy.HTop(cfg.P, cfg.Lambda, cfg.K, domain)
	if rep.Rho2Bound, err = privacy.MinRho2(cfg.P, cfg.Lambda, cfg.Rho1, cfg.K, domain); err != nil {
		return nil, err
	}
	if rep.DeltaBound, err = privacy.MinDelta(cfg.P, cfg.Lambda, cfg.K, domain); err != nil {
		return nil, err
	}

	sh := &fleetShared{}
	sh.met.victims = cfg.Metrics.Counter("fleet.victims")
	sh.met.violations = cfg.Metrics.Counter("fleet.violations")
	sh.met.probeFallbacks = cfg.Metrics.Counter("fleet.probe.fallbacks")
	sh.met.cutNodes = cfg.Metrics.Counter("fleet.cut.nodes")

	// One runner per target. Unsharded: a single runner over all of ℰ.
	// Sharded: one per shard, with a pinned client and the round-robin owner
	// subset {id : pg.ShardOf(id, S) == s} — the same partition the publisher
	// applied, which the adversary knows (the assignment is public).
	newRunner := func(cl *client, owners []int) *runner {
		return &runner{
			cl: cl, ext: ext, schema: d.Schema, hiers: hiers,
			domain: domain, p: cfg.P, owners: owners, sh: sh,
		}
	}
	var runners []*runner
	if cfg.Shards == 0 {
		all := make([]int, ext.Len())
		for id := range all {
			all[id] = id
		}
		runners = []*runner{newRunner(cl, all)}
	} else {
		runners = make([]*runner, cfg.Shards)
		for s := 0; s < cfg.Shards; s++ {
			var owners []int
			for id := s; id < ext.Len(); id += cfg.Shards {
				owners = append(owners, id)
			}
			if len(owners) == 0 {
				return nil, fmt.Errorf("attackfleet: shard %d of %d holds no owners at n = %d", s, cfg.Shards, ext.Len())
			}
			runners[s] = newRunner(cl.forShard(s), owners)
		}
	}

	// Aware adversary: reconstruct each target's whole partition once, up
	// front. The tds cut recovery queries serially, so its stream is
	// deterministic.
	for s, r := range runners {
		if cfg.Algorithm == pg.TDS.String() {
			rec, err := r.recoverCuts()
			if err != nil {
				return nil, fmt.Errorf("attackfleet: recovering shard %d cuts: %w", s, err)
			}
			r.model = modelFromRecoding(ext, rec, r.owners)
		} else {
			if r.model, err = replayPhase2(ext, hiers, cfg.Algorithm, cfg.K, cfg.Workers, r.owners); err != nil {
				return nil, err
			}
		}
	}

	// Victim sample: a sorted Seed-determined subset of the owners.
	fleetRoot := par.SplitSeed(cfg.Seed, 2)
	var owners []int
	for id := 0; id < ext.Len(); id++ {
		if !ext.IsExtraneous(id) {
			owners = append(owners, id)
		}
	}
	if len(owners) == 0 {
		return nil, fmt.Errorf("attackfleet: no microdata owners to attack")
	}
	if cfg.Victims > len(owners) {
		cfg.Victims = len(owners)
	}
	rep.Victims = cfg.Victims
	vrng := rand.New(rand.NewSource(par.SplitSeed(fleetRoot, 0)))
	picks := vrng.Perm(len(owners))[:cfg.Victims]
	sort.Ints(picks)
	victims := make([]int, cfg.Victims)
	for i, pi := range picks {
		victims[i] = owners[pi]
	}

	// The fan-out: one independent adversary per victim, results written to
	// a dedicated slot so aggregation order never depends on scheduling.
	details := make([]victimDetail, cfg.Victims)
	err = par.ForEachErr(cfg.Workers, cfg.Victims, func(i int) error {
		r := runners[0]
		if cfg.Shards > 0 {
			r = runners[pg.ShardOf(victims[i], cfg.Shards)]
		}
		det, err := r.attackVictim(victims[i], i, fleetRoot, cfg)
		if err != nil {
			return fmt.Errorf("victim %d: %w", victims[i], err)
		}
		details[i] = det
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh.met.victims.Add(int64(cfg.Victims))

	rep.details = details
	rep.aggregate(details, cfg.Fractions, sh)
	rep.Queries = cl.queries.Load()
	sh.met.violations.Add(int64(rep.Violations))
	return rep, nil
}

// servePub builds the serving stack for one in-process publication and
// exposes it on a loopback port — one shard of a sharded self-serve, or the
// whole release of an unsharded one.
func servePub(pub *pg.Published, cfg Config) (*serve.HTTPServer, error) {
	ix, err := query.NewIndex(pub)
	if err != nil {
		return nil, err
	}
	meta, err := pub.Metadata(cfg.Lambda, cfg.Rho1)
	if err != nil {
		return nil, err
	}
	inFlight := 2 * cfg.Workers
	if inFlight < 8 {
		inFlight = 8
	}
	srv, err := serve.New(serve.Config{
		Index: ix, Meta: meta,
		MaxInFlight: inFlight,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return srv.Serve("127.0.0.1:0")
}

// selfServeSharded publishes the microdata in cfg.Shards deterministic
// shards, serves each on its own loopback server, and fronts them with an
// in-process coordinator validated against an in-memory manifest — the
// loopback twin of pgpublish -shards + pgserve -coordinator. It returns the
// coordinator's base URL and a cleanup closing all the servers.
func selfServeSharded(d *dataset.Table, hiers []*hierarchy.Hierarchy, cfg Config) (string, func(), error) {
	var servers []*serve.HTTPServer
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	alg, err := pg.ParseAlgorithm(cfg.Algorithm)
	if err != nil {
		return "", cleanup, err
	}
	pubs, err := pg.PublishSharded(d, hiers, pg.Config{
		K: cfg.K, P: cfg.P, Algorithm: alg, Seed: cfg.Seed, Workers: cfg.Workers,
	}, cfg.Shards)
	if err != nil {
		return "", cleanup, err
	}
	man := &snapshot.Manifest{
		K: cfg.K, P: cfg.P, Algorithm: alg.String(), Seed: cfg.Seed, SourceRows: d.Len(),
	}
	urls := make([]string, len(pubs))
	for s, pub := range pubs {
		hs, err := servePub(pub, cfg)
		if err != nil {
			return "", cleanup, err
		}
		servers = append(servers, hs)
		urls[s] = "http://" + hs.Addr
		// The snapshots never touch disk, so the path is a label and the CRC
		// is unchecked (the coordinator validates shards over HTTP, not from
		// files).
		man.Shards = append(man.Shards, snapshot.ShardEntry{
			Path:       fmt.Sprintf("inproc-%02d.pgsnap", s),
			Rows:       pub.Len(),
			SourceRows: (d.Len() + len(pubs) - 1 - s) / len(pubs),
		})
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{
		Manifest: man, ShardURLs: urls, Metrics: cfg.Metrics,
	})
	if err != nil {
		return "", cleanup, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = coord.Start(ctx)
	cancel()
	if err != nil {
		return "", cleanup, err
	}
	hs, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		return "", cleanup, err
	}
	servers = append(servers, hs)
	return "http://" + hs.Addr, cleanup, nil
}

// attackVictim runs both adversary modes against one victim and computes its
// breach curve points.
func (r *runner) attackVictim(victim, slot int, fleetRoot int64, cfg Config) (victimDetail, error) {
	var det victimDetail
	det.victim = victim
	vq := r.ext.QIOf(victim)

	// A1 over HTTP: the crucial observation, cross-checked through the
	// COUNT, NAIVE and SUM estimator paths.
	fp, y, err := r.recoverY(vq)
	if err != nil {
		return det, err
	}
	det.y = y

	// Aware mode reads the crucial tuple off the reconstructed partition;
	// the served box weight must agree with the reconstruction's G.
	awareBox, gAware, candAware := r.model.crucialOf(victim)
	uAware := float64(gAware)
	for j := range awareBox.Lo {
		uAware /= float64(awareBox.Hi[j]-awareBox.Lo[j]) + 1
	}
	if math.Abs(fp.naive-uAware) > 1e-9*fp.naive {
		return det, fmt.Errorf(
			"served box weight %v disagrees with the reconstructed partition's %v", fp.naive, uAware)
	}
	det.g = gAware

	// Probe mode reconstructs the box blind from membership fingerprints.
	probeBox, err := r.probeBox(vq, fp)
	if err != nil {
		return det, err
	}
	gProbe, candProbe, err := r.groupFromBox(vq, probeBox, fp.naive, victim)
	if err != nil {
		return det, err
	}
	det.agree = probeBox.Equal(awareBox) && gProbe == gAware && equalInts(candProbe, candAware)

	truth, ok := r.ext.SensitiveOf(victim)
	if !ok {
		return det, fmt.Errorf("victim is not a microdata owner")
	}

	vRoot := par.SplitSeed(fleetRoot, 2+slot)
	det.fracs = make([]fracOutcome, len(cfg.Fractions))
	for fi, frac := range cfg.Fractions {
		rng := rand.New(rand.NewSource(par.SplitSeed(vRoot, fi)))
		adv, q, err := planFor(candAware, frac, cfg.Lambda, r.domain, truth, y, rng)
		if err != nil {
			return det, err
		}
		resAware, err := attack.Posterior(r.ext, victim, adv, q, r.p,
			attack.Crucial{Y: y, G: gAware, Candidates: candAware})
		if err != nil {
			return det, err
		}
		resProbe, err := attack.Posterior(r.ext, victim, adv, q, r.p,
			attack.Crucial{Y: y, G: gProbe, Candidates: candProbe})
		if err != nil {
			return det, err
		}
		det.fracs[fi] = fracOutcome{
			fraction: frac,
			aware:    outcomeOf(resAware),
			probe:    outcomeOf(resProbe),
		}
	}
	return det, nil
}

func outcomeOf(res *attack.Result) outcome {
	return outcome{h: res.H, prior: res.Prior, posterior: res.Posterior, growth: res.Posterior - res.Prior}
}

// planFor draws one adversary plan: a corruption set over the candidate set,
// a prior whose skew stays within lambda (honest: never excluding the
// truth), and a predicate containing the observed y — the same construction
// the Monte-Carlo harness stresses the bounds with. Corrupting individuals
// outside the candidate set cannot change the posterior, so the draw is
// restricted to 𝒪.
func planFor(candidates []int, frac, lambda float64, domain int, truth, y int32, rng *rand.Rand) (attack.Adversary, privacy.Predicate, error) {
	adv := attack.Adversary{
		Background: privacy.Uniform(domain),
		Corrupted:  map[int]bool{},
	}
	for _, id := range candidates {
		if rng.Float64() < frac {
			adv.Corrupted[id] = true
		}
	}
	if lambda > 1/float64(domain) {
		keep := int(1/lambda + 0.999999)
		if keep < 1 {
			keep = 1
		}
		if keep < domain {
			var excluded []int32
			for x := int32(0); len(excluded) < domain-keep && int(x) < domain; x++ {
				if x != truth {
					excluded = append(excluded, x)
				}
			}
			bg, err := privacy.Excluding(domain, excluded...)
			if err != nil {
				return adv, nil, err
			}
			adv.Background = bg
		}
	}
	values := []int32{y}
	for x := int32(0); int(x) < domain; x++ {
		if x != y && rng.Float64() < 0.2 {
			values = append(values, x)
		}
	}
	q, err := privacy.PredicateOf(domain, values...)
	return adv, q, err
}

// aggregate folds the per-victim outcomes into per-mode curves and checks
// every estimate against the Theorem 1–3 bounds: h against Inequality 20,
// posterior against the Theorem-2 bound whenever the prior confidence is
// within rho1, and posterior growth against the Theorem-3 bound.
func (rep *Report) aggregate(details []victimDetail, fractions []float64, sh *fleetShared) {
	pick := func(f fracOutcome, mode string) outcome {
		if mode == "aware" {
			return f.aware
		}
		return f.probe
	}
	for _, mode := range []string{"aware", "probe"} {
		mr := ModeReport{Mode: mode, Curve: make([]CurvePoint, len(fractions))}
		for fi, frac := range fractions {
			pt := CurvePoint{Fraction: frac}
			var sum float64
			for _, det := range details {
				o := pick(det.fracs[fi], mode)
				sum += o.posterior
				if o.h > pt.MaxH {
					pt.MaxH = o.h
				}
				if o.growth > pt.MaxGrowth {
					pt.MaxGrowth = o.growth
				}
				if o.h > rep.HBound+1e-9 {
					pt.Violations++
				}
				if o.growth > rep.DeltaBound+1e-9 {
					pt.Violations++
				}
				if o.prior <= rep.Rho1+1e-12 {
					if o.posterior > pt.MaxPosterior {
						pt.MaxPosterior = o.posterior
					}
					if o.posterior > rep.Rho2Bound+1e-9 {
						pt.Violations++
					}
				}
			}
			if len(details) > 0 {
				pt.MeanPosterior = sum / float64(len(details))
			}
			rep.Violations += pt.Violations
			mr.Curve[fi] = pt
		}
		switch mode {
		case "aware":
			mr.RecoveredCutNodes = int(sh.cutNodes.Load())
		case "probe":
			mr.ProbeFallbacks = sh.probeFallbacks.Load()
			for _, det := range details {
				if det.agree {
					mr.AgreeWithAware++
				}
			}
		}
		rep.Modes = append(rep.Modes, mr)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
