// Command pgquery answers aggregate COUNT queries against a published
// release — a D* CSV (SAL schema, as produced by pgpublish), a snapshot or
// a sharded release — using the stratified, perturbation-corrected
// estimator: the consumer-side workflow, where the analyst holds only the
// release plus what its publisher announced (pgpublish -meta, or the
// retention probability alone with -p).
//
// Usage:
//
//	pgquery -in anonymized.csv -meta anonymized.json -where "Age=30..50,Gender=M..M" -income 25..49
//	pgquery -in anonymized.csv -p 0.2996 -workload 50 -truth sal.csv
//	pgquery -snapshot release.pgsnap -where "Age=30..50" -income 25..49
//	pgquery -manifest release.pgman -where "Age=30..50" -income 25..49
//	pgquery -chain r0.pgsnap,r1.pgsnap,r2.pgsnap
//
// Every answer comes from the serving index — the one a snapshot stores,
// or one built once from a CSV — so a single query prints what a server
// over the same release answers. Workload mode answers the whole batch on
// GOMAXPROCS goroutines and reports queries/sec.
//
// With -chain pgquery audits a release chain instead of answering a
// query: every snapshot is fully verified, the parent-CRC links and
// release numbering are checked, publication parameters must be constant
// across the chain, and each release's stamped guarantee accounting
// (per-release odds-ratio bound, composed multi-release growth Δ_T) is
// recomputed from the parameters and compared. A broken, reordered or
// mis-accounted chain exits non-zero.
//
// With -manifest the query is answered against a sharded release
// (pgpublish -shards): every shard snapshot is checksum-verified against
// the manifest and serves its stored index, and answers compose in shard
// order — the same arithmetic a pgserve coordinator applies over HTTP, so
// the two agree bit for bit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/obs"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/shard"
	"pgpub/internal/snapshot"
)

func main() {
	in := flag.String("in", "", "published CSV (required unless -snapshot)")
	snap := flag.String("snapshot", "", "publication snapshot (.pgsnap) written by pgpublish -snapshot; replaces -in/-p/-meta")
	manifest := flag.String("manifest", "", "shard manifest (.pgman) written by pgpublish -manifest; answers compose across all shards")
	p := flag.Float64("p", -1, "the release's retention probability (or use -meta)")
	metaPath := flag.String("meta", "", "release metadata JSON written by pgpublish -meta")
	where := flag.String("where", "", "QI predicate: Attr=lo..hi[,Attr=lo..hi...] using attribute labels")
	income := flag.String("income", "", "sensitive predicate: lo..hi income bucket codes (0-49)")
	workload := flag.Int("workload", 0, "instead of one query, run N random queries")
	truth := flag.String("truth", "", "microdata CSV for error reporting (workload mode)")
	seed := flag.Int64("seed", 42, "workload seed")
	chain := flag.String("chain", "", "comma-separated release snapshots in order (r0,r1,...); audit the release chain instead of answering a query")
	dpBudgets := flag.String("dp-budgets", "", "ε-budget file (pgserve -dp-budgets): add the exact Laplace noise a DP server would to the answer (docs/DP.md)")
	dpKey := flag.String("dp-key", "", "API key whose noise stream to reproduce (with -dp-budgets)")
	dpSeed := flag.Int64("dp-seed", 0, "the DP server's root noise seed (with -dp-budgets)")
	metrics := flag.Bool("metrics", false, "instrument the serving engine and print the counter/latency report to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pgquery: %v\n", err)
		os.Exit(1)
	}

	var dpb *dp.Budget // the key whose served noise to reproduce
	if *dpBudgets != "" {
		if *dpKey == "" {
			fail(fmt.Errorf("-dp-budgets needs -dp-key"))
		}
		ledger, err := dp.LoadBudgets(*dpBudgets)
		if err != nil {
			fail(err)
		}
		if dpb = ledger.Key(*dpKey); dpb == nil {
			fail(fmt.Errorf("key %q is not provisioned in %s", *dpKey, *dpBudgets))
		}
	} else if *dpKey != "" || *dpSeed != 0 {
		fail(fmt.Errorf("-dp-key/-dp-seed need -dp-budgets"))
	}
	if dpb != nil && (*workload > 0 || *chain != "") {
		fail(fmt.Errorf("-dp-budgets reproduces one served answer; drop -workload/-chain"))
	}

	if *chain != "" {
		if *snap != "" || *in != "" || *manifest != "" {
			fail(fmt.Errorf("-chain audits a release chain; drop -snapshot/-in/-manifest"))
		}
		paths := strings.Split(*chain, ",")
		for i := range paths {
			paths[i] = strings.TrimSpace(paths[i])
		}
		infos, err := repub.VerifyChain(paths)
		if err != nil {
			fail(err)
		}
		fmt.Printf("release chain verified: %d releases, parameters constant, accounting matches Theorems 1-3\n", len(infos))
		fmt.Printf("%-8s %-10s %-10s %8s %8s %8s %12s %12s\n",
			"release", "crc", "parent", "inserts", "deletes", "rows", "odds-ratio", "delta_T")
		for _, ri := range infos {
			fmt.Printf("r%-7d %08x   %08x %8d %8d %8d %12.6f %12.6g\n",
				ri.Chain.Release, ri.CRC, ri.Chain.ParentCRC,
				ri.Chain.Inserts, ri.Chain.Deletes, ri.Rows,
				ri.Chain.OddsRatio, ri.Chain.ComposedDelta)
		}
		return
	}

	reg, stop, err := obs.CLI{Name: "pgquery", Metrics: *metrics, DebugAddr: *debugAddr}.Start()
	if err != nil {
		fail(err)
	}
	defer stop()

	// Every answer comes from what a server over the same release answers
	// from: a sharded release's compose group, a snapshot's stored index,
	// or a CSV's index built on load. crc is the release identity a DP
	// server keys its noise on: the manifest file's CRC at a coordinator,
	// the snapshot header CRC at a single server, 0 for a CSV.
	var (
		b   backend
		crc uint32
	)
	start := time.Now()
	switch {
	case *manifest != "":
		if *snap != "" || *in != "" {
			fail(fmt.Errorf("-manifest composes a sharded release; drop -snapshot/-in"))
		}
		g, err := shard.OpenObserved(*manifest, reg)
		if err != nil {
			fail(err)
		}
		if crc, err = snapshot.FileCRC(*manifest); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pgquery: opened %d shards (%d published tuples, k=%d, p=%.4f) in %v\n",
			g.Shards(), g.Rows(), g.Manifest.K, g.Manifest.P, time.Since(start).Round(time.Millisecond))
		b = g
	case *snap != "" || *in != "":
		var rel *serve.ReleaseData
		if *snap != "" {
			if rel, err = serve.SnapshotSource(*snap, false)(); err == nil {
				query.Observe(reg, rel.Index)
			}
		} else {
			rel, err = serve.OpenCSV(sal.Schema(), *in, *metaPath, *p, reg)
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pgquery: loaded %d published tuples (k=%d, p=%.4f) in %v\n",
			rel.Meta.Rows, rel.Meta.K, rel.Meta.P, time.Since(start).Round(time.Millisecond))
		b, crc = rel.Index, rel.CRC
	default:
		fail(fmt.Errorf("-in (with -p or -meta), -snapshot or -manifest is required"))
	}

	if *workload > 0 {
		runWorkload(b, *workload, *seed, *truth, fail)
		return
	}
	q, err := parseQuery(b.Schema(), *where, *income)
	if err != nil {
		fail(err)
	}
	est, err := b.Count(q)
	if err != nil {
		fail(err)
	}
	if dpb != nil {
		est = dpNoised(dpb, *dpSeed, crc, b.Schema(), q, est)
	}
	fmt.Printf("estimated count: %.1f\n", est)
}

// dpNoised reproduces a DP server's noise for one COUNT answer under key b:
// same mechanism, same keying inputs (seed, API key, release CRC, canonical
// query encoding), so the printed estimate matches the served answer bit
// for bit — the offline half of the serving equivalence contract
// (docs/DP.md).
func dpNoised(b *dp.Budget, seed int64, crc uint32, schema *dataset.Schema, q query.CountQuery, est float64) float64 {
	fmt.Fprintf(os.Stderr, "pgquery: DP mode — reproducing key %q's Laplace draw (ε=%g, release CRC %08x)\n",
		b.Key, b.PerQuery, crc)
	est, _ = dp.Mechanism{Seed: seed, CRC: crc}.Answer(b.Key, serve.QueryKey(schema, "count", q, nil), "count", est, 0, 0, b.PerQuery, 1) // a count is never refused
	return est
}

// parseQuery builds a CountQuery from the -where / -income flags.
func parseQuery(schema *dataset.Schema, where, income string) (query.CountQuery, error) {
	q := query.CountQuery{QI: make([]query.Range, schema.D())}
	for j, a := range schema.QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	if where != "" {
		for _, clause := range strings.Split(where, ",") {
			name, rng, ok := strings.Cut(strings.TrimSpace(clause), "=")
			if !ok {
				return q, fmt.Errorf("bad clause %q, want Attr=lo..hi", clause)
			}
			j := schema.QIIndex(name)
			if j < 0 {
				return q, fmt.Errorf("unknown attribute %q", name)
			}
			loS, hiS, ok := strings.Cut(rng, "..")
			if !ok {
				return q, fmt.Errorf("bad range %q, want lo..hi", rng)
			}
			lo, err := schema.QI[j].Code(loS)
			if err != nil {
				return q, err
			}
			hi, err := schema.QI[j].Code(hiS)
			if err != nil {
				return q, err
			}
			if lo > hi {
				return q, fmt.Errorf("inverted range %q", rng)
			}
			q.QI[j] = query.Range{Lo: lo, Hi: hi}
		}
	}
	if income != "" {
		loS, hiS, ok := strings.Cut(income, "..")
		if !ok {
			return q, fmt.Errorf("bad income range %q, want lo..hi", income)
		}
		var lo, hi int
		if _, err := fmt.Sscanf(loS+" "+hiS, "%d %d", &lo, &hi); err != nil {
			return q, fmt.Errorf("bad income range %q: %v", income, err)
		}
		if lo < 0 || hi >= schema.SensitiveDomain() || lo > hi {
			return q, fmt.Errorf("income range %q outside [0,%d]", income, schema.SensitiveDomain()-1)
		}
		mask := make([]bool, schema.SensitiveDomain())
		for x := lo; x <= hi; x++ {
			mask[x] = true
		}
		q.Sensitive = mask
	}
	return q, nil
}

// backend answers the COUNT queries of one release: a serving index or a
// sharded release's compose group.
type backend interface {
	Schema() *dataset.Schema
	Count(q query.CountQuery) (float64, error)
	AnswerWorkload(qs []query.CountQuery) ([]float64, error)
}

// runWorkload evaluates N random queries through an already-built answering
// backend, optionally against ground truth, in a single batched pass.
func runWorkload(b backend, n int, seed int64, truthPath string, fail func(error)) {
	schema := b.Schema()
	rng := rand.New(rand.NewSource(seed))
	qs, err := query.Workload(schema, query.WorkloadConfig{
		Queries: n, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng,
	})
	if err != nil {
		fail(err)
	}
	var d *dataset.Table
	if truthPath != "" {
		f, err := os.Open(truthPath)
		if err != nil {
			fail(err)
		}
		d, err = dataset.ReadCSV(schema, bufio.NewReader(f))
		f.Close()
		if err != nil {
			fail(err)
		}
	}
	start := time.Now()
	ests, err := b.AnswerWorkload(qs)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	var rels []float64
	for i, q := range qs {
		est := ests[i]
		if d == nil {
			fmt.Printf("query %3d: estimate %.1f\n", i, est)
			continue
		}
		tc, err := query.TrueCount(d, q)
		if err != nil {
			fail(err)
		}
		rel := math.NaN()
		if tc > 0 {
			rel = math.Abs(est-float64(tc)) / float64(tc)
			rels = append(rels, rel)
		}
		fmt.Printf("query %3d: estimate %10.1f  truth %8d  relErr %6.1f%%\n", i, est, tc, rel*100)
	}
	if len(rels) > 0 {
		sort.Float64s(rels)
		fmt.Printf("\n%d queries with positive truth: median relErr %.1f%%, p90 %.1f%%\n",
			len(rels), rels[len(rels)/2]*100, rels[len(rels)*9/10]*100)
	}
	fmt.Fprintf(os.Stderr, "pgquery: answered %d queries in %v (%.0f queries/sec)\n",
		len(qs), elapsed.Round(time.Microsecond), float64(len(qs))/elapsed.Seconds())
}
