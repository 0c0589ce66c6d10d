// Command pgattack simulates corruption-aided linking attacks (Section V)
// against a PG publication of the paper's hospital microdata (Table I), and
// reports the adversary's posterior confidence against the analytic bounds
// of Section VI. Use -worstcase to corrupt everyone except the victim — the
// scenario under which conventional generalization fails totally (Lemma 2)
// while PG's guarantees still hold.
//
// Usage:
//
//	pgattack -victim Ellie -corrupt Debbie,Emily -disease bronchitis,pneumonia
//	pgattack -victim Calvin -worstcase -p 0.3 -k 2 -trials 200
//
// With -exp fleet the command instead runs the adversary-at-scale attack
// fleet (internal/attackfleet, docs/ATTACKS.md) against a served SAL
// snapshot — self-published on a loopback port, or an already-running
// pgserve endpoint via -url:
//
//	pgattack -exp fleet -n 100000 -algorithm kd -benchout BENCH_pg.json
//	pgattack -exp fleet -url http://localhost:8080 -n 100000 -seed 42 -json fleet.json
//
// With -exp repub the command runs the multi-release chain adversary: it
// publishes a deterministic re-publication chain in-process (pg.Republish
// over churned microdata), attacks every release with adversaries that
// retain the whole chain, composes the evidence (repub.MultiReleaseAttack),
// and checks each T-release prefix against the composed growth bound the
// release-chain blocks announce — the breach-vs-release-count curve of
// docs/REPUBLICATION.md:
//
//	pgattack -exp repub -n 20000 -releases 5 -benchout BENCH_pg.json
//	pgattack -exp repub -n 8000 -releases 4 -churn 200 -json repub.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"pgpub/internal/attack"
	"pgpub/internal/attackfleet"
	"pgpub/internal/dataset"
	"pgpub/internal/experiments"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/snapshot"
)

func main() {
	exp := flag.String("exp", "", "experiment mode: 'fleet' runs the adversary-at-scale attack fleet; 'repub' runs the multi-release chain adversary")
	victim := flag.String("victim", "Ellie", "victim name (from the voter list)")
	corrupt := flag.String("corrupt", "", "comma-separated corrupted individuals")
	worst := flag.Bool("worstcase", false, "corrupt everyone except the victim (|C| = |E|-1)")
	diseases := flag.String("disease", "bronchitis,pneumonia,SARS,tuberculosis",
		"comma-separated diseases forming the predicate Q")
	p := flag.Float64("p", 0.25, "retention probability")
	k := flag.Int("k", 2, "QI-group size floor")
	algorithm := flag.String("algorithm", "", "Phase-2 algorithm: kd, tds or full-domain (default kd; with -snapshot or -url, validated against the release)")
	snap := flag.String("snapshot", "", "attack a fixed hospital publication snapshot (pgpublish -dataset hospital -snapshot) instead of re-publishing each trial")
	trials := flag.Int("trials", 100, "publication/attack repetitions")
	seed := flag.Int64("seed", 1, "random seed")
	n := flag.Int("n", 0, "fleet: SAL microdata cardinality (0 = 20000)")
	url := flag.String("url", "", "fleet: attack this pgserve endpoint instead of self-serving")
	shards := flag.Int("shards", 0, "fleet: attack a sharded release through its coordinator, one reconstruction per shard (0 = unsharded; with -url, adopted from the coordinator's metadata)")
	victims := flag.Int("victims", 0, "fleet: number of attacked owners (0 = 48)")
	fractions := flag.String("fractions", "", "fleet: comma-separated corruption fractions (default 0,0.25,0.5,0.75,1)")
	workers := flag.Int("workers", 0, "fleet: client-side parallelism (0 = GOMAXPROCS)")
	releases := flag.Int("releases", 0, "repub: chain length T, the release count the adversary retains (0 = 4)")
	churn := flag.Int("churn", 0, "repub: rows deleted and inserted per release (0 = n/50)")
	jsonOut := flag.String("json", "", "fleet: write the report JSON to this file ('-' for stdout)")
	benchout := flag.String("benchout", "", "fleet: merge the report into this tracked perf report, e.g. BENCH_pg.json")
	metrics := flag.Bool("metrics", false, "instrument the repeated publications and print the counter/phase report to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pgattack: %v\n", err)
		os.Exit(1)
	}

	// Which flags were given explicitly? -snapshot and fleet BaseURL mode
	// adopt unset parameters from the release metadata but must refuse a
	// conflicting explicit value instead of silently checking the wrong
	// guarantee.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	reg, stop, err := obs.CLI{Name: "pgattack", Metrics: *metrics, DebugAddr: *debugAddr}.Start()
	if err != nil {
		fail(err)
	}
	defer stop()

	switch *exp {
	case "":
	case "fleet", "repub":
		// -p/-k default to the hospital attack's values; an experiment gets
		// them only when set explicitly, so a fleet adopts the served ones.
		var ek int
		var ep float64
		if set["k"] {
			ek = *k
		}
		if set["p"] {
			ep = *p
		}
		fr, err := parseFractions(*fractions)
		if err != nil {
			fail(err)
		}
		if *exp == "fleet" {
			err = runFleet(attackfleet.Config{
				BaseURL: *url, N: *n, Seed: *seed, K: ek, P: ep, Algorithm: *algorithm,
				Shards: *shards, Victims: *victims, Fractions: fr, Workers: *workers,
				Metrics: reg,
			}, *jsonOut, *benchout)
		} else {
			err = runRepub(attackfleet.MultiReleaseConfig{
				N: *n, Seed: *seed, K: ek, P: ep, Algorithm: *algorithm,
				Releases: *releases, Churn: *churn, Victims: *victims, Fractions: fr,
				Workers: *workers, Metrics: reg,
			}, *jsonOut, *benchout)
		}
		if err != nil {
			fail(err)
		}
		return
	default:
		fail(fmt.Errorf("unknown experiment %q (want 'fleet' or 'repub')", *exp))
	}

	d := dataset.Hospital()
	hiers := hierarchy.Hospital(d.Schema)

	// The attack target's Phase-2 algorithm (trial republication only; with
	// -snapshot the release's own algorithm is validated and adopted below).
	alg := pg.KD
	if *algorithm != "" {
		var err error
		if alg, err = pg.ParseAlgorithm(*algorithm); err != nil {
			fail(err)
		}
	}

	// With -snapshot, the publication is fixed: attack it directly instead of
	// re-publishing, and adopt p, k and the algorithm from the release itself.
	// Explicit flags that contradict the release are an error — computing
	// Theorem 2/3 bounds for parameters the snapshot was not published under
	// would validate the wrong guarantee. The attack is then deterministic,
	// so one trial suffices.
	var fixed *pg.Published
	if *snap != "" {
		rel, err := snapshot.Load(*snap)
		if err != nil {
			fail(err)
		}
		fixed = rel.Pub
		if fixed.Schema.D() != d.Schema.D() ||
			fixed.Schema.Sensitive.Size() != d.Schema.Sensitive.Size() {
			fail(fmt.Errorf("snapshot %s is not a hospital publication (use pgpublish -dataset hospital -snapshot)", *snap))
		}
		if set["p"] && *p != fixed.P {
			fail(fmt.Errorf("-p %v conflicts with snapshot %s (published with p=%v); drop the flag to adopt the release's value", *p, *snap, fixed.P))
		}
		if set["k"] && *k != fixed.K {
			fail(fmt.Errorf("-k %d conflicts with snapshot %s (published with k=%d); drop the flag to adopt the release's value", *k, *snap, fixed.K))
		}
		if set["algorithm"] && alg != fixed.Algorithm {
			fail(fmt.Errorf("-algorithm %s conflicts with snapshot %s (published with %v); drop the flag to adopt the release's value", *algorithm, *snap, fixed.Algorithm))
		}
		*p, *k, *trials = fixed.P, fixed.K, 1
		alg = fixed.Algorithm
		fmt.Fprintf(os.Stderr, "pgattack: attacking fixed publication (%d tuples, %v, k=%d, p=%.4f)\n",
			fixed.Len(), fixed.Algorithm, fixed.K, fixed.P)
	}
	ext, err := attack.NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		fail(err)
	}

	nameToID := map[string]int{}
	for id, name := range dataset.HospitalNames {
		nameToID[name] = id
	}
	vid, ok := nameToID[*victim]
	if !ok {
		fail(fmt.Errorf("unknown victim %q (choose from %s)", *victim, strings.Join(dataset.HospitalNames, ", ")))
	}

	corrupted := map[int]bool{}
	if *worst {
		for id := range dataset.HospitalNames {
			if id != vid {
				corrupted[id] = true
			}
		}
	} else if *corrupt != "" {
		for _, name := range strings.Split(*corrupt, ",") {
			id, ok := nameToID[strings.TrimSpace(name)]
			if !ok {
				fail(fmt.Errorf("unknown individual %q", name))
			}
			corrupted[id] = true
		}
	}
	if corrupted[vid] {
		fail(fmt.Errorf("the victim cannot be in the corruption set"))
	}

	domain := d.Schema.SensitiveDomain()
	var codes []int32
	for _, name := range strings.Split(*diseases, ",") {
		c, err := d.Schema.Sensitive.Code(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		codes = append(codes, c)
	}
	q, err := privacy.PredicateOf(domain, codes...)
	if err != nil {
		fail(err)
	}

	lambda := 1 / float64(domain) // uniform background knowledge
	rho2Bound, err := privacy.MinRho2(*p, lambda, float64(len(codes))/float64(domain), *k, domain)
	if err != nil {
		fail(err)
	}
	deltaBound, err := privacy.MinDelta(*p, lambda, *k, domain)
	if err != nil {
		fail(err)
	}
	hBound := privacy.HTop(*p, lambda, *k, domain)

	fmt.Printf("victim: %s   corrupted: %d of %d individuals   Q: {%s}\n",
		*victim, len(corrupted), ext.Len()-1, *diseases)
	fmt.Printf("parameters: p=%.2f k=%d; analytic bounds: h<=%.4f, delta-growth<=%.4f, rho2<=%.4f\n\n",
		*p, *k, hBound, deltaBound, rho2Bound)

	rng := rand.New(rand.NewSource(*seed))
	adv := attack.Adversary{Background: privacy.Uniform(domain), Corrupted: corrupted}
	maxH, maxGrowth := 0.0, 0.0
	fmt.Printf("%-6s %-18s %8s %8s %10s %8s\n", "trial", "observed y", "h", "prior", "posterior", "growth")
	for trial := 0; trial < *trials; trial++ {
		pub := fixed
		if pub == nil {
			var err error
			pub, err = pg.Publish(d, hiers, pg.Config{K: *k, P: *p, Algorithm: alg, Seed: rng.Int63(), Metrics: reg})
			if err != nil {
				fail(err)
			}
		}
		res, err := attack.LinkAttack(pub, ext, vid, adv, q)
		if err != nil {
			fail(err)
		}
		if res.H > maxH {
			maxH = res.H
		}
		if g := res.Posterior - res.Prior; g > maxGrowth {
			maxGrowth = g
		}
		if trial < 10 {
			fmt.Printf("%-6d %-18s %8.4f %8.4f %10.4f %8.4f\n",
				trial, d.Schema.Sensitive.Label(res.Y), res.H, res.Prior,
				res.Posterior, res.Posterior-res.Prior)
		}
	}
	fmt.Printf("\nover %d trials: max h = %.4f (bound %.4f), max growth = %.4f (bound %.4f)\n",
		*trials, maxH, hBound, maxGrowth, deltaBound)
	if maxH <= hBound+1e-9 && maxGrowth <= deltaBound+1e-9 {
		fmt.Println("all attacks stayed within the Theorem 2/3 bounds")
	} else {
		fmt.Println("WARNING: a bound was exceeded — please report this as a bug")
		os.Exit(1)
	}
}

// runFleet runs the adversary-at-scale attack fleet and emits its report.
// A bound violation is a non-zero exit, after the report has been written.
func runFleet(cfg attackfleet.Config, jsonOut, benchout string) error {
	rep, err := attackfleet.Run(cfg)
	if err != nil {
		return err
	}
	renderFleet(rep)

	if err := writeReport(rep, jsonOut, benchout, func(pr *experiments.PerfReport) { pr.PutFleet(rep) }); err != nil {
		return err
	}
	if rep.Violations > 0 {
		return fmt.Errorf("%d Theorem 1-3 bound violations — please report this as a bug", rep.Violations)
	}
	fmt.Println("all adversaries stayed within the Theorem 1-3 bounds")
	return nil
}

// renderFleet prints the human-readable breach curves.
func renderFleet(rep *attackfleet.Report) {
	sharded := ""
	if rep.Shards > 0 {
		sharded = fmt.Sprintf(" shards=%d", rep.Shards)
	}
	fmt.Printf("fleet: n=%d rows=%d groups=%d %s k=%d p=%.4f seed=%d%s victims=%d queries=%d\n",
		rep.N, rep.Rows, rep.Groups, rep.Algorithm, rep.K, rep.P, rep.Seed, sharded, rep.Victims, rep.Queries)
	fmt.Printf("bounds: h<=%.4f rho2<=%.4f growth<=%.4f (lambda=%.3f rho1=%.3f)\n\n",
		rep.HBound, rep.Rho2Bound, rep.DeltaBound, rep.Lambda, rep.Rho1)
	for _, m := range rep.Modes {
		// "rho2 post" is the Theorem-2-conditioned maximum: posteriors of
		// plans whose prior confidence was within rho1 (0 when no plan was).
		fmt.Printf("%-6s %10s %10s %10s %12s %10s\n",
			m.Mode, "fraction", "max h", "rho2 post", "mean post", "max growth")
		for _, c := range m.Curve {
			fmt.Printf("%-6s %10.2f %10.4f %10.4f %12.4f %10.4f\n",
				"", c.Fraction, c.MaxH, c.MaxPosterior, c.MeanPosterior, c.MaxGrowth)
		}
		switch m.Mode {
		case "aware":
			if m.RecoveredCutNodes > 0 {
				fmt.Printf("       recovered cut nodes: %d\n", m.RecoveredCutNodes)
			}
		case "probe":
			fmt.Printf("       agree with aware: %d/%d (probe fallbacks: %d)\n",
				m.AgreeWithAware, rep.Victims, m.ProbeFallbacks)
		}
		fmt.Println()
	}
}

// parseFractions parses a comma-separated corruption-fraction list; empty
// input returns nil (the experiment's defaults apply).
func parseFractions(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &v); err != nil {
			return nil, fmt.Errorf("bad -fractions entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runRepub runs the multi-release chain adversary (internal/attackfleet
// MultiRelease) and emits the breach-vs-release-count curve. A composed
// bound violation is a non-zero exit, after the report has been written.
func runRepub(cfg attackfleet.MultiReleaseConfig, jsonOut, benchout string) error {
	rep, err := attackfleet.MultiRelease(cfg)
	if err != nil {
		return err
	}
	renderRepub(rep)

	if err := writeReport(rep, jsonOut, benchout, func(pr *experiments.PerfReport) { pr.PutRepub(rep) }); err != nil {
		return err
	}
	if rep.Violations > 0 {
		return fmt.Errorf("%d composed-bound violations — please report this as a bug", rep.Violations)
	}
	fmt.Println("all chain-retaining adversaries stayed within the composed growth bound")
	return nil
}

// renderRepub prints the human-readable breach-vs-release-count curve.
func renderRepub(rep *attackfleet.MultiReleaseReport) {
	fmt.Printf("repub: n=%d releases=%d churn=%d %s k=%d p=%.4f seed=%d victims=%d fractions=%v\n",
		rep.N, rep.Releases, rep.Churn, rep.Algorithm, rep.K, rep.P, rep.Seed, rep.Victims, rep.Fractions)
	fmt.Printf("bounds: h<=%.4f per release, odds ratio R=%.4f (lambda=%.3f); rows per release: %v\n\n",
		rep.HBound, rep.OddsRatioBound, rep.Lambda, rep.Rows)
	fmt.Printf("%10s %10s %10s %12s %10s %12s\n",
		"releases", "max h", "max post", "mean post", "max growth", "bound delta_T")
	for _, pt := range rep.Curve {
		fmt.Printf("%10d %10.4f %10.4f %12.4f %10.4f %12.4f\n",
			pt.Releases, pt.MaxH, pt.MaxPosterior, pt.MeanPosterior, pt.MaxGrowth, pt.Bound)
	}
	fmt.Println()
}

// writeReport writes a fleet or repub report as indented JSON to jsonOut
// ('-' for stdout) and stores it, with put, in the tracked perf report at
// benchout; an empty path skips that output.
func writeReport(rep any, jsonOut, benchout string, put func(*experiments.PerfReport)) error {
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if benchout != "" {
		if err := experiments.UpdateReport(benchout, put); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", benchout)
	}
	return nil
}
