// Command pgserve serves a published release over HTTP: it opens a
// publication snapshot (pgpublish -snapshot) and adopts the serving index
// stored in it, or loads a published CSV with the metadata published
// beside it (pgpublish -meta) and builds the index once, and
// answers aggregate queries through the hardened API in internal/serve —
// the long-running counterpart to the one-shot pgquery. SIGINT/SIGTERM
// trigger a graceful drain: the listener closes, in-flight requests
// complete, and the process exits 0.
//
// Usage:
//
//	pgserve -snapshot release.pgsnap -addr :8080
//	pgserve -snapshot release.pgsnap -mmap -addr :8080
//	pgserve -in anonymized.csv -meta anonymized.json -addr :8080 -debug-addr :6060
//	pgserve -coordinator -manifest release.pgman \
//	    -shard-urls http://h0:8081,http://h1:8081 -addr :8080
//
// With -mmap the snapshot's column blocks and prebuilt serving index are
// adopted straight from the file's pages (read-only memory map) and only
// the metadata is checksummed: the cold start costs page faults, not a read
// of the file. Without it the file is read into memory and fully verified
// (every block CRC and the publication validator) before it serves.
//
// With -coordinator the process holds no data at all: it loads the shard
// manifest (pgpublish -shards -manifest), validates each shard server
// against it over HTTP, and serves the same /v1 API — the same server, with
// its admission limit, result cache, DP mode and reload, at their defaults
// — by fanning queries out to the shards with per-shard timeouts and
// p95-triggered hedged requests, merging answers (count/naive/sum
// additively, avg from per-shard sum/weight pairs). A dead shard turns into
// a 502 naming it.
//
// A flag the chosen mode does not apply — -cache or -mmap with
// -coordinator, -hedge without it, -p with -snapshot — is a usage error
// (exit 2), not silently ignored.
// See docs/SERVING.md for the API reference and a worked session.
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pgpub/internal/dp"
	"pgpub/internal/obs"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// options holds pgserve's flags.
type options struct {
	snap, in, metaPath        string
	mmap                      bool
	p                         float64
	coordinator               bool
	manifestPath, shardURLs   string
	shardTimeout, hedge       time.Duration
	addr                      string
	maxInFlight, cacheEntries int
	timeout                   time.Duration
	workers                   int
	dpBudgets                 string
	dpSeed                    int64
	drain                     time.Duration
	metrics                   bool
	debugAddr                 string
}

// Serving modes, as a bit set: each flag applies in some of them.
const (
	coordMode = 1 << iota
	snapshotMode
	csvMode
	serverModes = snapshotMode | csvMode
)

// flagModes lists the modes of every flag that does not apply in all of
// them; a flag missing here applies in every mode.
var flagModes = map[string]int{
	"manifest":      coordMode,
	"shard-urls":    coordMode,
	"shard-timeout": coordMode,
	"hedge":         coordMode,
	"snapshot":      snapshotMode,
	"mmap":          snapshotMode,
	"in":            csvMode,
	"p":             csvMode,
	"meta":          csvMode,
	"max-inflight":  serverModes,
	"timeout":       serverModes,
	"cache":         serverModes,
	"workers":       serverModes,
}

// parseFlags defines pgserve's flags on fs, parses args, and rejects every
// explicitly set flag the chosen mode does not apply, so a misplaced flag
// is an error instead of being silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.snap, "snapshot", "", "publication snapshot (.pgsnap) written by pgpublish -snapshot")
	fs.BoolVar(&o.mmap, "mmap", false, "serve the snapshot in place via a read-only memory map (with -snapshot; answers are identical, cold start skips the parse)")
	fs.StringVar(&o.in, "in", "", "published CSV with the SAL schema (alternative to -snapshot)")
	fs.Float64Var(&o.p, "p", -1, "the release's retention probability (with -in; or use -meta)")
	fs.StringVar(&o.metaPath, "meta", "", "release metadata JSON written by pgpublish -meta (with -in)")
	fs.BoolVar(&o.coordinator, "coordinator", false, "run as a fan-out coordinator over shard servers instead of serving a snapshot")
	fs.StringVar(&o.manifestPath, "manifest", "", "shard manifest (.pgman) written by pgpublish -manifest (with -coordinator)")
	fs.StringVar(&o.shardURLs, "shard-urls", "", "comma-separated shard server base URLs, one per manifest shard in shard order (with -coordinator)")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 5*time.Second, "per-shard call deadline at the coordinator, hedges included (with -coordinator)")
	fs.DurationVar(&o.hedge, "hedge", 25*time.Millisecond, "hedge delay before a shard has a latency history (its live p95 takes over after); negative disables hedging (with -coordinator)")
	fs.StringVar(&o.addr, "addr", ":8080", "API listen address")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "concurrent request admission limit (0 = 8*GOMAXPROCS); excess load is shed with 429 (without -coordinator)")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request answer deadline (without -coordinator)")
	fs.IntVar(&o.cacheEntries, "cache", 4096, "result cache capacity in entries (negative disables; without -coordinator)")
	fs.IntVar(&o.workers, "workers", 0, "batch fan-out goroutines (0 = GOMAXPROCS); batch answers are identical for any value (without -coordinator)")
	fs.StringVar(&o.dpBudgets, "dp-budgets", "", "per-API-key ε-budget file (one `key ε_total ε_per_query` per line): serve Laplace-noised answers in differential-privacy mode (docs/DP.md)")
	fs.Int64Var(&o.dpSeed, "dp-seed", 0, "DP noise root seed (0 draws one from crypto/rand; pin only for tests and offline audits)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	fs.BoolVar(&o.metrics, "metrics", false, "print the counter/latency report to stderr on exit")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	mode, where := serverModes, "without -coordinator"
	switch {
	case o.coordinator:
		mode, where = coordMode, "with -coordinator"
	case o.snap != "":
		mode, where = snapshotMode, "with -snapshot"
	case o.in != "":
		mode, where = csvMode, "with -in"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if m, ok := flagModes[f.Name]; ok && m&mode == 0 && err == nil {
			err = fmt.Errorf("-%s does not apply %s", f.Name, where)
		}
	})
	return o, err
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgserve: %v\n", err)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pgserve: %v\n", err)
		os.Exit(1)
	}

	reg, stop, err := obs.CLI{Name: "pgserve", Always: true, Metrics: o.metrics, DebugAddr: o.debugAddr}.Start()
	if err != nil {
		fail(err)
	}
	defer stop()

	var dpCfg *serve.DPConfig
	if o.dpBudgets != "" {
		ledger, err := dp.LoadBudgets(o.dpBudgets)
		if err != nil {
			fail(err)
		}
		seed := o.dpSeed
		if seed == 0 {
			var b [8]byte
			if _, err := rand.Read(b[:]); err != nil {
				fail(fmt.Errorf("drawing DP seed: %w", err))
			}
			seed = int64(binary.LittleEndian.Uint64(b[:]))
		}
		dpCfg = &serve.DPConfig{Ledger: ledger, Seed: seed}
		fmt.Fprintf(os.Stderr, "pgserve: DP mode on — %d API keys provisioned, Laplace noise over every aggregate (docs/DP.md)\n", ledger.Len())
	} else if o.dpSeed != 0 {
		fail(fmt.Errorf("-dp-seed needs -dp-budgets"))
	}

	if o.coordinator {
		if o.manifestPath == "" || o.shardURLs == "" {
			fail(fmt.Errorf("-coordinator requires -manifest and -shard-urls"))
		}
		// The manifest and its file CRC — the release identity DP noise is
		// keyed on — are read together, at start and on every reload.
		loadManifest := func() (*snapshot.Manifest, uint32, error) {
			man, err := snapshot.LoadManifest(o.manifestPath)
			if err != nil {
				return nil, 0, err
			}
			crc, err := snapshot.FileCRC(o.manifestPath)
			return man, crc, err
		}
		man, manCRC, err := loadManifest()
		if err != nil {
			fail(err)
		}
		urls := strings.Split(o.shardURLs, ",")
		for i := range urls {
			urls[i] = strings.TrimSuffix(strings.TrimSpace(urls[i]), "/")
		}
		coord, err := serve.NewCoordinator(serve.CoordConfig{
			Manifest:       man,
			ShardURLs:      urls,
			ShardTimeout:   o.shardTimeout,
			HedgeAfter:     o.hedge,
			Metrics:        reg,
			ManifestSource: loadManifest,
			DP:             dpCfg,
			CRC:            manCRC,
		})
		if err != nil {
			fail(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.shardTimeout+5*time.Second)
		err = coord.Start(ctx)
		cancel()
		if err != nil {
			fail(err)
		}
		hs, err := coord.Serve(o.addr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pgserve: coordinating %d shards (%d rows total) on http://%s (POST /v1/query, POST /v1/batch, GET /v1/metadata, GET /v1/shards)\n",
			len(man.Shards), man.SourceRows, hs.Addr)
		waitAndDrain(hs, o.drain, coord.Reload, fail)
		return
	}

	// Load the release. A snapshot comes through the Source a reload uses —
	// mapped in place with -mmap, read and verified otherwise — and serves
	// the index it stores; a CSV is read with its announced metadata (or
	// -p) and indexed here, and has no Source to reload from.
	var (
		first  *serve.ReleaseData
		source func() (*serve.ReleaseData, error)
		opened string
	)
	coldStart := time.Now()
	switch {
	case o.snap != "":
		source = serve.SnapshotSource(o.snap, o.mmap)
		if first, err = source(); err != nil {
			fail(err)
		}
		query.Observe(reg, first.Index)
		opened = "snapshot read and verified"
		if o.mmap {
			opened = "snapshot mapped"
		}
	case o.in != "":
		if first, err = serve.OpenCSV(sal.Schema(), o.in, o.metaPath, o.p, reg); err != nil {
			fail(err)
		}
		opened = "CSV read and indexed"
	default:
		fail(fmt.Errorf("-snapshot or -in is required"))
	}
	fmt.Fprintf(os.Stderr, "pgserve: %s in %v\n", opened, time.Since(coldStart).Round(time.Microsecond))
	meta := first.Meta
	alg := meta.Algorithm
	if alg == "" {
		alg = "algorithm unannounced"
	}
	fmt.Fprintf(os.Stderr, "pgserve: loaded %d published tuples (%s, k=%d, p=%.4f)\n",
		meta.Rows, alg, meta.K, meta.P)
	fmt.Fprintf(os.Stderr, "pgserve: cold start complete in %v (%d groups)\n",
		time.Since(coldStart).Round(time.Microsecond), first.Index.Groups())
	if first.Chain != nil {
		fmt.Fprintf(os.Stderr, "pgserve: release %d of a chain (CRC %08x); SIGHUP or POST /v1/admin/reload hot-swaps to its successor\n",
			first.Chain.Release, first.CRC)
	}
	srv, err := serve.New(serve.Config{
		Index:          first.Index,
		Meta:           meta,
		MaxInFlight:    o.maxInFlight,
		RequestTimeout: o.timeout,
		CacheEntries:   o.cacheEntries,
		Workers:        o.workers,
		Metrics:        reg,
		CRC:            first.CRC,
		Chain:          first.Chain,
		Source:         source,
		DP:             dpCfg,
	})
	if err != nil {
		fail(err)
	}
	hs, err := srv.Serve(o.addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "pgserve: serving on http://%s (POST /v1/query, POST /v1/batch, GET /v1/metadata)\n", hs.Addr)
	waitAndDrain(hs, o.drain, srv.Reload, fail)
}

// waitAndDrain blocks until SIGINT/SIGTERM, then drains in-flight requests
// up to the deadline — shared by the snapshot server and the coordinator.
// SIGHUP triggers reload (the hot-swap to the next release of the chain);
// a rejected or failed reload is logged and the process keeps serving the
// current release — SIGHUP never exits. In particular, a server with no
// snapshot path to reload from (started with -in, or on a chainless
// snapshot) refuses the reload with a clear error instead of swapping.
func waitAndDrain(hs *serve.HTTPServer, drain time.Duration, reload func() (*serve.ReloadResult, error), fail func(error)) {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		sig := <-sigs
		if sig == syscall.SIGHUP {
			res, err := reload()
			switch {
			case errors.Is(err, serve.ErrReloadRejected):
				fmt.Fprintf(os.Stderr, "pgserve: %v\n", err)
			case err != nil:
				fmt.Fprintf(os.Stderr, "pgserve: reload failed: %v\n", err)
			default:
				fmt.Fprintf(os.Stderr, "pgserve: hot-swapped to release %d (CRC %08x, %d rows)\n",
					res.Release, res.CRC, res.Rows)
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "pgserve: %v received, draining (deadline %v)\n", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
			fail(fmt.Errorf("drain incomplete: %w", err))
		}
		fmt.Fprintln(os.Stderr, "pgserve: drained, bye")
		return
	}
}
