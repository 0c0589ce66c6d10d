// Command pgpublish anonymizes microdata with perturbed generalization and
// writes D* as CSV. The input is either the built-in hospital example of the
// paper's Table I, a SAL CSV produced by salgen, or a freshly generated SAL
// sample. The retention probability can be given directly (-p) or solved
// from a target guarantee level (-rho2 / -delta-target), mirroring Section VI's
// parameter-selection rule.
//
// Usage:
//
//	pgpublish -dataset hospital -s 0.5 -p 0.25
//	pgpublish -dataset sal -n 100000 -k 6 -rho2 0.45
//	pgpublish -in sal.csv -k 6 -delta-target 0.24 -out anonymized.csv
//	pgpublish -dataset sal -n 50000 -k 6 -p 0.3 -snapshot release.pgsnap
//	pgpublish -dataset sal -n 100000 -k 6 -p 0.3 -shards 4 \
//	    -snapshot release.pgsnap -manifest release.pgman
//	pgpublish -in sal.csv -k 6 -p 0.3 -seed 42 \
//	    -delta d1.csv -base r0.pgsnap -snapshot r1.pgsnap
//
// With -shards S the microdata is partitioned round-robin into S
// deterministic shards, each published independently (per-shard seeds split
// from -seed, so shard bytes are stable at any GOMAXPROCS), saved to
// release-00.pgsnap ... release-0{S-1}.pgsnap, and described by a
// checksummed manifest (-manifest) that pgserve -coordinator and pgquery
// -manifest consume. Those are the whole release: a sharded publish writes
// no CSV and refuses -out and -meta, because the union of the shards' boxes
// overlaps across shards and is no PG release any reader accepts.
//
// With -delta the command publishes the next release of a re-publication
// chain: the comma-separated delta files are replayed in order over the
// base microdata (same -in/-dataset and -seed as release 0 — release bytes
// are a pure function of base, delta sequence and parameters), the last
// delta defines the new release, and its snapshot chains onto -base via a
// release-chain block carrying the parent's CRC and the cross-release
// guarantee accounting. A plain -snapshot publish stamps release 0 of a
// chain. docs/REPUBLICATION.md specifies the delta format and the chain.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/shard"
	"pgpub/internal/snapshot"
)

func main() {
	ds := flag.String("dataset", "sal", "built-in dataset: sal|hospital (ignored with -in)")
	in := flag.String("in", "", "input CSV with the SAL schema (from salgen)")
	n := flag.Int("n", 100000, "generated SAL cardinality (without -in)")
	seed := flag.Int64("seed", 42, "random seed")
	k := flag.Int("k", 0, "QI-group size floor (alternative to -s)")
	s := flag.Float64("s", 0, "cardinality parameter in (0,1]: |D*| <= |D|*s")
	p := flag.Float64("p", -1, "retention probability; omit to solve from -rho2/-delta-target")
	rho1 := flag.Float64("rho1", 0.2, "prior-confidence bound for -rho2 solving")
	rho2 := flag.Float64("rho2", 0, "target rho2 level (solves max p, Theorem 2)")
	deltaTarget := flag.Float64("delta-target", 0, "target delta-growth level (solves max p, Theorem 3)")
	lambda := flag.Float64("lambda", 0.1, "background-knowledge skew bound")
	alg := flag.String("algorithm", "kd", "phase-2 algorithm: kd|tds|full-domain")
	out := flag.String("out", "", "output file (default stdout)")
	meta := flag.String("meta", "", "also write release metadata JSON to this file")
	snap := flag.String("snapshot", "", "also write a binary publication snapshot (.pgsnap) for pgserve/pgquery")
	base := flag.String("base", "", "parent release snapshot (.pgsnap) the new release chains onto (with -delta)")
	deltas := flag.String("delta", "", "comma-separated delta files replayed in order over the base microdata; the last defines the new release (requires -base and -snapshot)")
	shards := flag.Int("shards", 0, "partition into this many deterministic shards, one snapshot each (requires -snapshot as the base name and -manifest)")
	manifestPath := flag.String("manifest", "", "write the shard manifest (.pgman) here (with -shards)")
	metrics := flag.Bool("metrics", false, "instrument the pipeline and print the counter/phase report to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()
	if *k != 0 && *s != 0 {
		fmt.Fprintln(os.Stderr, "pgpublish: set -k or -s, not both")
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pgpublish: %v\n", err)
		os.Exit(1)
	}

	reg, stop, err := obs.CLI{Name: "pgpublish", Metrics: *metrics, DebugAddr: *debugAddr}.Start()
	if err != nil {
		fail(err)
	}
	defer stop()

	var (
		d     *dataset.Table
		hiers []*hierarchy.Hierarchy
	)
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		d, err = dataset.ReadCSV(sal.Schema(), bufio.NewReader(f))
		f.Close()
		if err != nil {
			fail(err)
		}
		hiers = sal.Hierarchies(d.Schema)
	case *ds == "hospital":
		d = dataset.Hospital()
		hiers = hierarchy.Hospital(d.Schema)
	case *ds == "sal":
		d, err = sal.Generate(*n, *seed)
		if err != nil {
			fail(err)
		}
		hiers = sal.Hierarchies(d.Schema)
	default:
		fail(fmt.Errorf("unknown dataset %q", *ds))
	}

	// Resolve k = ceil(1/s) to solve guarantees before publication.
	kk := *k
	if kk == 0 {
		if *s <= 0 || *s > 1 {
			fail(fmt.Errorf("set -k or -s in (0,1]"))
		}
		kk = int(1 / *s)
		if float64(kk) < 1 / *s {
			kk++
		}
	}

	retention := *p
	domain := d.Schema.SensitiveDomain()
	if retention < 0 {
		switch {
		case *rho2 > 0 && *deltaTarget > 0:
			pr, err := privacy.MaxRetentionRho12(*lambda, *rho1, *rho2, kk, domain)
			if err != nil {
				fail(err)
			}
			pd, err := privacy.MaxRetentionDelta(*lambda, *deltaTarget, kk, domain)
			if err != nil {
				fail(err)
			}
			retention = pr
			if pd < pr {
				retention = pd
			}
		case *rho2 > 0:
			retention, err = privacy.MaxRetentionRho12(*lambda, *rho1, *rho2, kk, domain)
			if err != nil {
				fail(err)
			}
		case *deltaTarget > 0:
			retention, err = privacy.MaxRetentionDelta(*lambda, *deltaTarget, kk, domain)
			if err != nil {
				fail(err)
			}
		default:
			fail(fmt.Errorf("set -p, -rho2 or -delta-target"))
		}
		fmt.Fprintf(os.Stderr, "pgpublish: solved retention probability p = %.4f\n", retention)
	}

	algorithm, err := pg.ParseAlgorithm(*alg)
	if err != nil {
		fail(err)
	}

	cfg := pg.Config{K: kk, P: retention, Algorithm: algorithm, Seed: *seed, Metrics: reg}
	var (
		pub   *pg.Published
		pubs  []*pg.Published
		chain *snapshot.ChainMetadata
	)
	switch {
	case *deltas != "":
		// Incremental re-publication: replay every delta in order over the
		// base microdata (release bytes are a pure function of the base, the
		// delta sequence and the parameters, so the chain state rebuilds
		// deterministically), then chain the final release onto -base.
		if *shards > 0 {
			fail(fmt.Errorf("-delta and -shards are mutually exclusive"))
		}
		if *base == "" || *snap == "" {
			fail(fmt.Errorf("-delta requires -base (the parent release) and -snapshot (the new release)"))
		}
		files := strings.Split(*deltas, ",")
		baseRel, err := snapshot.Load(*base)
		if err != nil {
			fail(err)
		}
		basePub, baseChain, parentCRC := baseRel.Pub, baseRel.Chain, baseRel.CRC
		if baseChain == nil {
			fail(fmt.Errorf("%s has no release-chain block; re-publish it with a current pgpublish -snapshot to start a chain", *base))
		}
		if baseChain.Release != len(files)-1 {
			fail(fmt.Errorf("%s is release %d; %d delta files publish release %d, whose parent is release %d",
				*base, baseChain.Release, len(files), len(files), len(files)-1))
		}
		ch := pg.NewChain(d, hiers)
		if pub, err = pg.Republish(ch, pg.Delta{}, cfg); err != nil {
			fail(err)
		}
		var last pg.Delta
		for i, path := range files {
			dl, err := pg.LoadDelta(d.Schema, strings.TrimSpace(path))
			if err != nil {
				fail(fmt.Errorf("delta %d: %w", i+1, err))
			}
			if pub, err = pg.Republish(ch, dl, cfg); err != nil {
				fail(fmt.Errorf("release %d: %w", i+1, err))
			}
			last = dl
		}
		if basePub.P != pub.P || basePub.K != pub.K || basePub.Algorithm != pub.Algorithm {
			fail(fmt.Errorf("parameters changed across the chain: %s is (%v, k=%d, p=%.4f), this release is (%v, k=%d, p=%.4f); guarantees do not compose across them",
				*base, basePub.Algorithm, basePub.K, basePub.P, pub.Algorithm, pub.K, pub.P))
		}
		inserts := 0
		if last.Inserts != nil {
			inserts = last.Inserts.Len()
		}
		chain, err = repub.ChainMetadataFor(len(files), parentCRC, inserts, len(last.Deletes),
			ch.Table().Len(), pub.P, *lambda, pub.K, domain)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pgpublish: release %d chains onto %s (parent CRC %08x)\n",
			chain.Release, *base, parentCRC)
	case *shards > 0:
		if *out != "" || *meta != "" {
			fail(fmt.Errorf("-shards writes no CSV or metadata file; a sharded release is its shard snapshots (-snapshot) and manifest (-manifest)"))
		}
		if *snap == "" || *manifestPath == "" {
			fail(fmt.Errorf("-shards requires -snapshot (the per-shard base name) and -manifest"))
		}
		pubs, err = pg.PublishSharded(d, hiers, cfg, *shards)
		if err != nil {
			fail(err)
		}
		// The shards share p and k, so shard 0 carries the release's
		// guarantee.
		pub = pubs[0]
	default:
		if *manifestPath != "" {
			fail(fmt.Errorf("-manifest needs -shards"))
		}
		if *base != "" {
			fail(fmt.Errorf("-base needs -delta"))
		}
		pub, err = pg.Publish(d, hiers, cfg)
		if err != nil {
			fail(err)
		}
		// A plain publish is release 0 of a (potential) chain: stamping the
		// chain block here is what lets a later -base/-delta invocation, and
		// pgserve's hot-swap, chain onto this snapshot.
		chain, err = repub.ChainMetadataFor(0, 0, 0, 0, d.Len(), pub.P, *lambda, pub.K, domain)
		if err != nil {
			fail(err)
		}
	}
	r2, dl, err := pub.Guarantees(*lambda, *rho1)
	if err != nil {
		fail(err)
	}
	rows := pub.Len()
	if pubs != nil {
		rows = 0
		for _, sp := range pubs {
			rows += sp.Len()
		}
	}
	fmt.Fprintf(os.Stderr,
		"pgpublish: published %d of %d tuples (k=%d, p=%.4f); guarantees: %.2f-to-%.2f, %.2f-growth\n",
		rows, d.Len(), pub.K, pub.P, *rho1, r2, dl)

	if *meta != "" {
		m, err := pub.Metadata(*lambda, *rho1)
		if err != nil {
			fail(err)
		}
		mf, err := os.Create(*meta)
		if err != nil {
			fail(err)
		}
		if err := m.Write(mf); err != nil {
			mf.Close()
			fail(err)
		}
		if err := mf.Close(); err != nil {
			fail(err)
		}
	}

	if *snap != "" {
		g := &pg.GuaranteeMetadata{Lambda: *lambda, Rho1: *rho1, Rho2: r2, Delta: dl}
		if *shards > 0 {
			if _, err := shard.WriteRelease(*manifestPath, *snap, pubs, g, *seed, d.Len()); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "pgpublish: %d shard snapshots (%s ... %s) and manifest %s written\n",
				len(pubs), shard.SnapshotPath(*snap, 0), shard.SnapshotPath(*snap, len(pubs)-1), *manifestPath)
			return // the shard snapshots and the manifest are the whole release
		}
		if err := snapshot.SaveRelease(*snap, pub, g, chain); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pgpublish: snapshot written to %s (release %d)\n", *snap, chain.Release)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := pub.WriteCSV(bw); err != nil {
		fail(err)
	}
	if err := bw.Flush(); err != nil {
		fail(err)
	}
}
