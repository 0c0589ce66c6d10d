package main

import (
	"fmt"
	"os"
	"path/filepath"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// ledger is the publish-side layer cost of one release. Times are in ns.
type ledger struct {
	perturb, generalize, sampling, publish, save, open, verify, index float64
	groups, bytes                                                     float64
}

func (l *ledger) add(o ledger) {
	l.perturb += o.perturb
	l.generalize += o.generalize
	l.sampling += o.sampling
	l.publish += o.publish
	l.save += o.save
	l.open += o.open
	l.verify += o.verify
	l.index += o.index
	l.groups += o.groups
	l.bytes += o.bytes
}

// publisher publishes one release of a workload — one table, or one per
// shard — with cfg.Metrics set to the registry it is given.
type publisher func(met *obs.Registry) ([]*pg.Published, error)

// publishOne adapts pg.Publish to a publisher.
func publishOne(d *dataset.Table, hiers []*hierarchy.Hierarchy, cfg pg.Config) publisher {
	return func(met *obs.Registry) ([]*pg.Published, error) {
		cfg.Metrics = met
		pub, err := pg.Publish(d, hiers, cfg)
		return []*pg.Published{pub}, err
	}
}

// measureLedger publishes one release and reads its phase times from the
// spans pg.Publish records in cfg.Metrics (pg.phase1, pg.phase2, pg.phase3
// and pg.publish, summed over shards). It then times, by calling each
// directly, the snapshot save, mapped open, deep verify and index build of
// every published table.
func (r *run) measureLedger(publish publisher, path string) (ledger, error) {
	var l ledger
	met := obs.NewRegistry()
	pubs, err := publish(met)
	if err != nil {
		return l, err
	}
	spent := func(name string) float64 { return float64(met.Histogram(name, "ns").Sum()) }
	l.perturb, l.generalize, l.sampling = spent("pg.phase1"), spent("pg.phase2"), spent("pg.phase3")
	l.publish = spent("pg.publish")
	l.groups = float64(met.Counter("pg.phase2.groups").Value())
	for s, pub := range pubs {
		p := fmt.Sprintf("%s-%d.pgsnap", path, s)
		t0 := clock()
		if err := snapshot.Save(p, pub, nil); err != nil {
			return l, err
		}
		t1 := clock()
		m, err := snapshot.OpenMapped(p)
		if err != nil {
			return l, err
		}
		t2 := clock()
		err = m.Verify()
		t3 := clock()
		m.Close()
		if err != nil {
			r.fail(true, "%s release: mapped verify: %v", pub.Algorithm, err)
		}
		if _, err := query.NewIndex(pub); err != nil {
			return l, err
		}
		t4 := clock()
		fi, err := os.Stat(p)
		if err != nil {
			return l, err
		}
		l.add(ledger{save: float64(t1 - t0), open: float64(t2 - t1), verify: float64(t3 - t2),
			index: float64(t4 - t3), bytes: float64(fi.Size())})
	}
	return l, nil
}

// recordLedger sets the publish-side per-layer metrics: the median over
// repetitions of each layer's cost per release of the workload.
func (r *run) recordLedger(reps []ledger) {
	pick := func(f func(l ledger) float64) float64 {
		xs := make([]float64, len(reps))
		for i, l := range reps {
			xs[i] = f(l)
		}
		return median(xs)
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	r.set("perturb.table_ms", ms(pick(func(l ledger) float64 { return l.perturb })))
	r.set("generalize.ms", ms(pick(func(l ledger) float64 { return l.generalize })))
	r.set("sampling.stratified_ms", ms(pick(func(l ledger) float64 { return l.sampling })))
	r.set("pg.publish_ms", ms(pick(func(l ledger) float64 { return l.publish })))
	r.set("pg.unattributed_ms", ms(pick(func(l ledger) float64 {
		return l.publish - l.perturb - l.generalize - l.sampling
	})))
	r.set("snapshot.save_ms", ms(pick(func(l ledger) float64 { return l.save })))
	r.set("snapshot.open_ms", ms(pick(func(l ledger) float64 { return l.open })))
	r.set("snapshot.verify_ms", ms(pick(func(l ledger) float64 { return l.verify })))
	r.set("query.index_build_ms", ms(pick(func(l ledger) float64 { return l.index })))
	r.set("generalize.groups", pick(func(l ledger) float64 { return l.groups }))
	r.set("snapshot.bytes", pick(func(l ledger) float64 { return l.bytes }))
	r.note("ledger_reps", len(reps))
}

// ledgerReps measures a serving workload's ledger cfg.setups times and
// records the medians.
func (r *run) ledgerReps(publish publisher) error {
	var reps []ledger
	for i := 0; i < r.cfg.setups; i++ {
		l, err := r.measureLedger(publish, filepath.Join(r.dir, fmt.Sprintf("ledger-%d", i)))
		if err != nil {
			return fmt.Errorf("layer ledger: %w", err)
		}
		reps = append(reps, l)
	}
	r.recordLedger(reps)
	return nil
}

// recordRequests sets the request-side per-layer metrics from an untraced
// and a traced pass of the same traffic, and writes the traced spans to
// trace-<workload>.json.
func (r *run) recordRequests(plain, traced []exchange, replay replayer) error {
	p50, err := percentile(latencies(plain, (*exchange).service), 0.5)
	if err != nil {
		return err
	}
	p50t, err := percentile(latencies(traced, (*exchange).service), 0.5)
	if err != nil {
		return err
	}
	p99, err := percentile(latencies(plain, (*exchange).latency), 0.99)
	if err != nil {
		return err
	}
	late, backlog, err := genStats(plain)
	if err != nil {
		return err
	}
	b := analyze(traced, r.tr.take(), replay)
	if b.requests == 0 {
		return fmt.Errorf("no traced request completed")
	}
	r.set("lat.p99_ms", p99)
	r.set("trace.overhead_pct", 100*(p50t/p50-1))
	r.set("gen.late_p99_us", late)
	r.set("gen.backlog_max", float64(backlog))
	for _, l := range []string{"gen.wait", "http.wire", "handler.self", "query.index", "client.codec", "unattributed"} {
		r.set(l+"_us", b.layers[l]/1e3)
	}
	r.set("trace.mean_us", b.meanNS/1e3)
	r.set("coord.fanout_share", b.fanout)
	r.note("traced_requests", b.requests)
	r.note("untraced_p50_ms", p50)
	r.note("traced_p50_ms", p50t)
	// The layers tile each request's span; whatever no layer covers is the
	// unattributed row, and it must stay a small share of the traced mean.
	if u := b.layers["unattributed"]; u > 0.1*b.meanNS {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: unattributed %.1f us is more than 10%% of the traced mean %.1f us\n",
			r.workload, u/1e3, b.meanNS/1e3)
	}
	return writeJSON(filepath.Join(r.out, "trace-"+r.workload+".json"), map[string]any{
		"workload": r.workload, "seed": r.seed, "spans": b.spans,
	})
}

// recordCapacity sets load.closed_qps: the answers per second of a closed
// loop of nproc senders that lasted ns.
func (r *run) recordCapacity(ex []exchange, ns int64) {
	answered := 0
	for i := range ex {
		if ex[i].err == nil {
			answered++
		}
	}
	r.set("load.closed_qps", float64(answered)/(float64(ns)/1e9))
}

// recordCounters sets the per-layer metrics read from the servers' own
// counters, summed over every server of the run.
func (r *run) recordCounters() {
	v := func(name string) float64 { return float64(r.reg.Counter(name).Value()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := v("serve.cache.hits"), v("serve.cache.misses")
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("serve.coalesced", v("serve.coalesced"))
	r.set("serve.shed", v("serve.shed"))
	r.set("serve.reloads", v("serve.reload.swapped"))
	fired := v("coord.hedge.fired")
	r.set("coord.hedges_fired", fired)
	r.set("coord.hedge_won_ratio", ratio(v("coord.hedge.won"), fired))
	r.set("gen.sent", float64(r.sent.Load()))
	r.set("dp.eps_spent", 0) // serve-cold sets it from the budgets afterwards
}
