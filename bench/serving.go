package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/shard"
	"pgpub/internal/snapshot"
)

// traffic is what a serving workload plugs into the shared load generator.
type traffic struct {
	url    string // /v1/query of the front server
	body   func(item int) []byte
	pick   func(rng *rand.Rand) func() int // item picker, drawing from rng
	key    func(item int) string           // X-API-Key, nil outside DP mode
	check  func(ex []exchange)
	replay replayer
	// beside, when set, runs beside the measured open-loop phases — the
	// serve-cold hot-swaps — from start for d; the returned func waits for it.
	beside func(start int64, d time.Duration) (wait func())
}

// drive runs a serving workload's traffic from nproc senders, open loop at
// the workload's frozen rate: warm-up, then the measured window — untraced,
// or, when tracing, an untraced and a traced half.
func (r *run) drive(t *traffic) error {
	senders := newSenders(runtime.GOMAXPROCS(0))
	defer closeSenders(senders)
	rate := r.cfg.rate[r.workload]
	do := func(s *sender, e *exchange) { s.post(t.url, t.body(e.item), e) }
	plain := func(e *exchange) {
		if t.key != nil {
			e.key = t.key(e.item)
		}
	}
	traced := func(e *exchange) {
		plain(e)
		e.trace = r.traceSeq.Add(1)
	}
	phase := 0
	schedule := func(d time.Duration) []arrival {
		phase++
		rng := rand.New(rand.NewSource(par.SplitSeed(r.seed, 100+phase)))
		return poisson(rng, rate, d, t.pick(rng))
	}
	beside := func(d time.Duration) func() {
		if t.beside == nil {
			return func() {}
		}
		return t.beside(clock(), d)
	}

	t.check(openLoop(senders, schedule(r.cfg.warmup), plain, do))
	if r.trace {
		half := r.window / 2
		wait := beside(2 * half)
		pl := openLoop(senders, schedule(half), plain, do)
		tr := openLoop(senders, schedule(half), traced, do)
		wait()
		t.check(pl)
		t.check(tr)
		pick := t.pick(rand.New(rand.NewSource(par.SplitSeed(r.seed, 200))))
		end := clock() + int64(r.window/4)
		cl, ns := closedLoop(senders, func() (int, bool) { return pick(), clock() < end }, plain, do)
		t.check(cl)
		r.recordCapacity(cl, ns)
		return r.recordRequests(pl, tr, t.replay)
	}

	wait := beside(r.window)
	if err := resetPeakRSS(); err != nil {
		return err
	}
	ex := openLoop(senders, schedule(r.window), plain, do)
	wait()
	t.check(ex)
	// latency_ms is the servers' time, from the send. Timed from the due
	// time, it adds the wait for a free sender, which on a shared virtual
	// machine swings with the host's load several times more than the
	// servers' time does; that wait is reported beside it, as the due-time
	// p50 and p99 here and gen.wait_us and lat.p99_ms when tracing.
	slices := sliceMedians(ex)
	if len(slices) == 0 {
		return fmt.Errorf("no one-second slice of the window holds enough answers for a median")
	}
	r.set("latency_ms", median(slices))
	r.note("open_loop_rate", rate)
	r.note("slice_medians_ms", slices)
	lat := latencies(ex, (*exchange).latency)
	r.note("open_loop_samples", len(lat))
	if p50, err := percentile(lat, 0.5); err == nil {
		r.note("due_time_p50_ms", p50)
	}
	if p99, err := percentile(lat, 0.99); err == nil {
		r.note("due_time_p99_ms", p99)
	}
	return nil
}

// checkExact is the exact-mode check: every answer bit-equal to the pool's.
func (r *run) checkExact(pool []entry) func(ex []exchange) {
	return func(ex []exchange) {
		r.sent.Add(int64(len(ex)))
		for i := range ex {
			e := &ex[i]
			r.attempted.Add(1)
			if e.err != nil {
				r.fail(false, "query %d: %v", e.item, e.err)
				continue
			}
			if want := pool[e.item].want; math.Float64bits(e.estimate) != math.Float64bits(want) {
				r.fail(true, "query %d (%s): served %v, in-process answer %v", e.item, pool[e.item].op, e.estimate, want)
			}
		}
	}
}

// zipfPicker draws pool ranks with Zipf(s) popularity.
func zipfPicker(n int, s float64) func(*rand.Rand) func() int {
	return func(rng *rand.Rand) func() int {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
}

// single is one server over a mapped snapshot of a kd release.
type single struct {
	d   *dataset.Table
	pub *pg.Published
	m   *snapshot.Mapped
	ep  *endpoint
}

func (s *single) close() {
	s.ep.close()
	s.m.Close()
}

// runServeHot serves a 100k-row kd release in exact mode to a Zipf(1.1)
// pool of 8192 distinct queries, half on the grid path and half on the kd
// path, through the default 4096-entry cache: repeats make the cache, JSON
// and HTTP the dominant work.
func runServeHot(r *run) error {
	c := r.cfg
	var dep *single
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	if err := r.timeSetups(func() error {
		if dep != nil {
			dep.close()
			dep = nil
		}
		var err error
		dep, err = r.deploySingle(filepath.Join(r.dir, "hot.pgsnap"))
		return err
	}); err != nil {
		return err
	}
	ref, err := query.NewIndex(dep.pub)
	if err != nil {
		return err
	}
	pool, err := buildPool(dep.pub.Schema, c.pool, rand.New(rand.NewSource(par.SplitSeed(r.seed, 20))), mixedSpec, keepExact(ref))
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.ledgerReps(publishOne(dep.d, sal.Hierarchies(dep.d.Schema), r.pgConfig(pg.KD))); err != nil {
			return err
		}
	}
	err = r.drive(&traffic{
		url:   dep.ep.url + "/v1/query",
		body:  func(i int) []byte { return pool[i].body },
		pick:  zipfPicker(len(pool), 1.1),
		check: r.checkExact(pool),
		replay: func(sp *span, e *exchange) (int64, bool) {
			t0 := clock()
			_, err := exact(dep.m.Index, pool[e.item].op, pool[e.item].q)
			return clock() - t0, err == nil
		},
	})
	r.recordCounters()
	return err
}

// deploySingle is the serve-hot set-up: generate, publish, save, open
// mapped, start the server.
func (r *run) deploySingle(path string) (*single, error) {
	c := r.cfg
	d, err := sal.Generate(c.serveN, r.seed)
	if err != nil {
		return nil, err
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), r.pgConfig(pg.KD))
	if err != nil {
		return nil, err
	}
	if err := snapshot.Save(path, pub, nil); err != nil {
		return nil, err
	}
	m, err := snapshot.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	meta, err := pub.Metadata(0, 0)
	if err != nil {
		m.Close()
		return nil, err
	}
	srv, err := serve.New(serve.Config{Index: m.Index, Meta: meta, Metrics: r.reg})
	if err != nil {
		m.Close()
		return nil, err
	}
	ep, err := listen(r.tr.wrap("front", 0, srv.Handler()))
	if err != nil {
		m.Close()
		return nil, err
	}
	return &single{d: d, pub: pub, m: m, ep: ep}, nil
}

// coldChain is the serve-cold deployment: a DP-mode server over release 0 of
// a re-publication chain, with the later releases waiting on disk.
type coldChain struct {
	d     *dataset.Table // base microdata
	pubs  []*pg.Published
	paths []string
	crcs  []uint32
	live  string           // the path the server reloads from
	first *snapshot.Mapped // release 0, as the server started on it
	ep    *endpoint
}

// close stops the server and unmaps release 0, so a discarded set-up
// repetition leaves no mapping behind. Releases the server reloaded are
// mapped by serve.SnapshotSource and stay mapped: that retention is part of
// what rss_peak_mb measures.
func (c *coldChain) close() {
	if c.ep != nil {
		c.ep.close()
	}
	if c.first != nil {
		c.first.Close()
	}
}

// DP mode of serve-cold: four API keys used round-robin, each charged ε per
// query against a budget that never runs out.
const (
	dpKeys    = 4
	dpEpsilon = 0.1
)

func dpKey(item int) string { return fmt.Sprintf("tenant-%d", item%dpKeys) }

// runServeCold serves a DP-mode release chain to fresh 3–4-attribute
// queries (kd path, no repeats, so the cache never hits), while the chain's
// next release is renamed over the served path and hot-swapped in at evenly
// spaced times during the measured open-loop phase.
func runServeCold(r *run) error {
	c := r.cfg
	var dep *coldChain
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	if err := r.timeSetups(func() error {
		if dep != nil {
			dep.close()
			dep = nil
		}
		var err error
		dep, err = r.deployChain(filepath.Join(r.dir, "cold"))
		return err
	}); err != nil {
		return err
	}
	schema := dep.d.Schema
	refs := map[string]int{} // X-PG-Release → release number
	ixs := make([]*query.Index, len(dep.pubs))
	for i, pub := range dep.pubs {
		var err error
		if ixs[i], err = query.NewIndex(pub); err != nil {
			return err
		}
		refs[fmt.Sprintf("%08x", dep.crcs[i])] = i
	}
	keep := func(e *entry) bool {
		if e.op != "avg" {
			return true
		}
		_, w, err := ixs[0].AvgParts(e.q, codeValue)
		return err == nil && w >= c.minWeight
	}
	pool, err := buildPool(schema, c.coldPool, rand.New(rand.NewSource(par.SplitSeed(r.seed, 30))), kdSpec, keep)
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.ledgerReps(publishOne(dep.d, sal.Hierarchies(schema), r.pgConfig(pg.KD))); err != nil {
			return err
		}
	}

	fresh := 0
	nextFresh := func() int {
		fresh++
		return (fresh - 1) % len(pool)
	}
	mech := dp.Mechanism{Seed: coldDPSeed(r.seed)}
	answered := make([]int, dpKeys)
	sw := &swapper{r: r, dep: dep, next: 1, hc: &http.Client{Timeout: 30 * time.Second}}
	check := func(ex []exchange) {
		r.sent.Add(int64(len(ex)))
		for i := range ex {
			e := &ex[i]
			r.attempted.Add(1)
			if e.err != nil {
				r.fail(false, "query %d: %v", e.item, e.err)
				continue
			}
			answered[e.item%dpKeys]++
			rel, ok := refs[e.release]
			if !ok {
				r.fail(true, "query %d: unknown X-PG-Release %q", e.item, e.release)
				continue
			}
			if lo, hi := sw.window(e); rel < lo || rel > hi {
				r.fail(true, "query %d: answered by release %d, expected %d..%d after the hot-swaps", e.item, rel, lo, hi)
			}
			if e.item%16 != 0 {
				continue
			}
			mech.CRC = dep.crcs[rel]
			want, err := dpAnswer(ixs[rel], schema, mech, pool[e.item], dpKey(e.item))
			if err != nil {
				r.fail(true, "query %d: offline re-derivation: %v", e.item, err)
			} else if math.Float64bits(want) != math.Float64bits(e.estimate) {
				r.fail(true, "query %d (%s, release %d): served %v, offline DP answer %v", e.item, pool[e.item].op, rel, e.estimate, want)
			}
		}
	}
	err = r.drive(&traffic{
		url:   dep.ep.url + "/v1/query",
		body:  func(i int) []byte { return pool[i].body },
		pick:  func(*rand.Rand) func() int { return nextFresh },
		key:   dpKey,
		check: check,
		replay: func(sp *span, e *exchange) (int64, bool) {
			rel, ok := refs[e.release]
			if !ok {
				return 0, false
			}
			t0 := clock()
			_, err := exact(ixs[rel], pool[e.item].op, pool[e.item].q)
			return clock() - t0, err == nil
		},
		beside: sw.run,
	})
	if err != nil {
		return err
	}
	r.recordCounters()
	r.checkBudgets(dep, answered, sw.hc)
	return nil
}

// coldDPSeed is the DP mechanism's root seed for a benchmark seed.
func coldDPSeed(seed int64) int64 { return par.SplitSeed(seed, 40) }

// deployChain is the serve-cold set-up: generate, publish the release chain
// with pg.Republish and 400-row churn deltas, save each release as a v3
// snapshot, and start a DP-mode server on release 0 through the mapped
// snapshot source it reloads from.
func (r *run) deployChain(dir string) (*coldChain, error) {
	c := r.cfg
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := sal.Generate(c.serveN, r.seed)
	if err != nil {
		return nil, err
	}
	ch := pg.NewChain(d, sal.Hierarchies(d.Schema))
	cfg := r.pgConfig(pg.KD)
	rng := rand.New(rand.NewSource(par.SplitSeed(r.seed, 31)))
	dep := &coldChain{d: d, live: filepath.Join(dir, "live.pgsnap")}
	var parent uint32
	for rel := 0; rel < c.chain; rel++ {
		var delta pg.Delta
		if rel > 0 {
			ins, err := sal.Generate(c.churn, par.SplitSeed(r.seed, 1000+rel))
			if err != nil {
				return nil, err
			}
			delta = pg.Delta{Deletes: rng.Perm(ch.Table().Len())[:c.churn], Inserts: ins}
		}
		pub, err := pg.Republish(ch, delta, cfg)
		if err != nil {
			return nil, err
		}
		ins := 0
		if delta.Inserts != nil {
			ins = delta.Inserts.Len()
		}
		cm, err := repub.ChainMetadataFor(rel, parent, ins, len(delta.Deletes), ch.Table().Len(),
			pub.P, 0.1, pub.K, d.Schema.SensitiveDomain())
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("release-%d.pgsnap", rel))
		if err := snapshot.SaveRelease(path, pub, nil, cm); err != nil {
			return nil, err
		}
		if parent, err = snapshot.HeaderCRC(path); err != nil {
			return nil, err
		}
		dep.pubs = append(dep.pubs, pub)
		dep.paths = append(dep.paths, path)
		dep.crcs = append(dep.crcs, parent)
	}
	if err := os.Rename(dep.paths[0], dep.live); err != nil {
		return nil, err
	}
	// Release 0 is opened here, as serve.SnapshotSource would open it, so
	// that close can unmap it; every reload goes through SnapshotSource.
	if dep.first, err = snapshot.OpenMapped(dep.live); err != nil {
		return nil, err
	}
	if err := r.startCold(dep); err != nil {
		dep.close()
		return nil, err
	}
	return dep, nil
}

// startCold starts serve-cold's DP-mode server on release 0.
func (r *run) startCold(dep *coldChain) error {
	meta, err := dep.first.Pub.Metadata(0, 0)
	if err != nil {
		return err
	}
	meta.Guarantee = dep.first.Guarantee
	var budgets strings.Builder
	for i := 0; i < dpKeys; i++ {
		fmt.Fprintf(&budgets, "%s 1e15 %g\n", dpKey(i), dpEpsilon)
	}
	ledger, err := dp.ParseBudgets(strings.NewReader(budgets.String()))
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Index: dep.first.Index, Meta: meta, CRC: dep.crcs[0], Chain: dep.first.Chain,
		Source: serve.SnapshotSource(dep.live, true), Metrics: r.reg,
		DP: &serve.DPConfig{Ledger: ledger, Seed: coldDPSeed(r.seed)},
	})
	if err != nil {
		return err
	}
	dep.ep, err = listen(r.tr.wrap("front", 0, srv.Handler()))
	return err
}

// dpAnswer re-derives a served DP answer offline, the way pgquery's DP mode
// does: the exact answer from the release's index, plus the mechanism's
// noise keyed on the API key, the canonical query key and the release CRC.
// avg splits ε into halves for the noised sum (draw 0) and weight (draw 1).
func dpAnswer(ix *query.Index, schema *dataset.Schema, m dp.Mechanism, e entry, key string) (float64, error) {
	qk := serve.QueryKey(schema, e.op, e.q, nil)
	sens := float64(schema.SensitiveDomain() - 1)
	switch e.op {
	case "count":
		v, err := ix.Count(e.q)
		return v + m.Noise(key, qk, 0, 1/dpEpsilon), err
	case "sum":
		s, _, err := ix.AvgParts(e.q, codeValue)
		return s + m.Noise(key, qk, 0, sens/dpEpsilon), err
	case "avg":
		s, w, err := ix.AvgParts(e.q, codeValue)
		if err != nil {
			return 0, err
		}
		half := dpEpsilon / 2
		nw := w + m.Noise(key, qk, 1, 1/half)
		if nw <= 0 {
			return 0, errEmptyRegion
		}
		return (s + m.Noise(key, qk, 0, sens/half)) / nw, nil
	}
	return 0, fmt.Errorf("op %q is not in the serve-cold mix", e.op)
}

// checkBudgets compares each key's spent ε, as GET /v1/dp/budget reports
// it, with the answers it received.
func (r *run) checkBudgets(dep *coldChain, answered []int, hc *http.Client) {
	var spent float64
	for k := 0; k < dpKeys; k++ {
		r.attempted.Add(1)
		req, err := http.NewRequest(http.MethodGet, dep.ep.url+"/v1/dp/budget", nil)
		if err != nil {
			r.fail(false, "budget request: %v", err)
			continue
		}
		req.Header.Set("X-API-Key", dpKey(k))
		var st serve.BudgetStatus
		if err := getJSON(hc, req, &st); err != nil {
			r.fail(false, "budget of %s: %v", dpKey(k), err)
			continue
		}
		want := float64(answered[k]) * dpEpsilon
		if math.Abs(st.Spent-want) > 1e-9*math.Max(1, want) {
			r.fail(true, "budget of %s: spent %v, %d answers × ε = %v", dpKey(k), st.Spent, answered[k], want)
		}
		spent += st.Spent
	}
	r.set("dp.eps_spent", spent)
}

func getJSON(hc *http.Client, req *http.Request, v any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// swapper hot-swaps serve-cold's chain, one release at a time: rename the
// next release over the served path, POST /v1/admin/reload.
type swapper struct {
	r     *run
	dep   *coldChain
	next  int    // next release to swap in
	swaps []swap // attempted swaps, in order
	hc    *http.Client
}

type swap struct {
	release     int
	start, done int64
	ok          bool
}

// run spreads cfg.reloads swaps evenly over d from start.
func (s *swapper) run(start int64, d time.Duration) func() {
	n := s.r.cfg.reloads
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n && s.next < len(s.dep.paths); i++ {
			waitUntil(start + int64(d)*int64(i)/int64(n+1))
			s.swapNext()
		}
	}()
	return func() { <-done }
}

func (s *swapper) swapNext() {
	r, rel := s.r, s.next
	s.next++
	r.attempted.Add(1)
	sw := swap{release: rel, start: clock()}
	defer func() {
		sw.done = clock()
		s.swaps = append(s.swaps, sw)
	}()
	if err := os.Rename(s.dep.paths[rel], s.dep.live); err != nil {
		r.fail(false, "hot-swap to release %d: %v", rel, err)
		return
	}
	resp, err := s.hc.Post(s.dep.ep.url+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		r.fail(false, "hot-swap to release %d: %v", rel, err)
		return
	}
	defer resp.Body.Close()
	var res serve.ReloadResult
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&res) != nil {
		r.fail(false, "hot-swap to release %d: HTTP %d", rel, resp.StatusCode)
		return
	}
	if res.Release != rel || res.CRC != s.dep.crcs[rel] {
		r.fail(true, "hot-swap to release %d: now serving release %d (CRC %08x), want CRC %08x", rel, res.Release, res.CRC, s.dep.crcs[rel])
		return
	}
	sw.ok = true
}

// window is the range of releases that may have answered e: at least the
// last release swapped in before e was sent, at most the last whose swap
// had started when e's answer arrived.
func (s *swapper) window(e *exchange) (lo, hi int) {
	for _, sw := range s.swaps {
		if !sw.ok {
			continue
		}
		if sw.done <= e.sent {
			lo = sw.release
		}
		if sw.start <= e.headers {
			hi = sw.release
		}
	}
	return lo, hi
}

// coordFleet is the serve-coord deployment: shard servers over mapped shard
// snapshots behind a started coordinator.
type coordFleet struct {
	pubs   []*pg.Published
	d      *dataset.Table
	mapped []*snapshot.Mapped
	shards []*endpoint
	ep     *endpoint
	rt     *http.Transport // the traced coordinator's transport; nil untraced
}

func (f *coordFleet) close() {
	if f.ep != nil {
		f.ep.close()
	}
	if f.rt != nil {
		f.rt.CloseIdleConnections()
	}
	for _, s := range f.shards {
		s.close()
	}
	for _, m := range f.mapped {
		m.Close()
	}
}

// runServeCoord serves a 4-shard release through the coordinator with its
// default hedging, to a uniform pool of 8192 queries restricting at most two
// attributes. Each shard answers on the O(1) grid path, so fan-out, five
// HTTP hops per query and the merge are the work.
func runServeCoord(r *run) error {
	c := r.cfg
	var dep *coordFleet
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	if err := r.timeSetups(func() error {
		if dep != nil {
			dep.close()
			dep = nil
		}
		var err error
		dep, err = r.deployFleet(filepath.Join(r.dir, "coord"))
		return err
	}); err != nil {
		return err
	}
	group, err := shard.NewGroup(dep.pubs)
	if err != nil {
		return err
	}
	pool, err := buildPool(group.Schema(), c.pool, rand.New(rand.NewSource(par.SplitSeed(r.seed, 50))), gridSpec, keepExact(group))
	if err != nil {
		return err
	}
	if r.trace {
		hiers := sal.Hierarchies(dep.d.Schema)
		if err := r.ledgerReps(func(met *obs.Registry) ([]*pg.Published, error) {
			cfg := r.pgConfig(pg.KD)
			cfg.Metrics = met
			return pg.PublishSharded(dep.d, hiers, cfg, c.shards)
		}); err != nil {
			return err
		}
	}
	err = r.drive(&traffic{
		url:   dep.ep.url + "/v1/query",
		body:  func(i int) []byte { return pool[i].body },
		pick:  func(rng *rand.Rand) func() int { return func() int { return rng.Intn(len(pool)) } },
		check: r.checkExact(pool),
		replay: func(sp *span, e *exchange) (int64, bool) {
			if sp.node < 1 {
				return 0, false
			}
			t0 := clock()
			_, err := exact(dep.mapped[sp.node-1].Index, pool[e.item].op, pool[e.item].q)
			return clock() - t0, err == nil
		},
	})
	r.recordCounters()
	return err
}

// deployFleet is the serve-coord set-up: generate, publish sharded, write
// the shard snapshots and manifest, open every shard mapped, start the shard
// servers and the coordinator, and let it validate the fleet.
func (r *run) deployFleet(dir string) (*coordFleet, error) {
	c := r.cfg
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := sal.Generate(c.serveN, r.seed)
	if err != nil {
		return nil, err
	}
	pubs, err := pg.PublishSharded(d, sal.Hierarchies(d.Schema), r.pgConfig(pg.KD), c.shards)
	if err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, "release.pgman")
	man, err := shard.WriteRelease(manPath, filepath.Join(dir, "release.pgsnap"), pubs, nil, r.seed, d.Len())
	if err != nil {
		return nil, err
	}
	f := &coordFleet{pubs: pubs, d: d}
	urls := make([]string, len(pubs))
	for s := range pubs {
		m, err := snapshot.OpenMapped(man.ShardPath(manPath, s))
		if err != nil {
			f.close()
			return nil, err
		}
		f.mapped = append(f.mapped, m)
		meta, err := m.Pub.Metadata(0, 0)
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := serve.New(serve.Config{Index: m.Index, Meta: meta, Metrics: r.reg})
		if err != nil {
			f.close()
			return nil, err
		}
		ep, err := listen(r.tr.wrap("shard", s+1, srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, ep)
		urls[s] = ep.url
	}
	// Untraced, the coordinator builds its own client, so the end-to-end
	// numbers measure the shipped one. Traced, a copy of its default
	// transport is wrapped to record the shard calls.
	var hc *http.Client
	if r.tr != nil {
		f.rt = &http.Transport{MaxIdleConnsPerHost: 64}
		hc = &http.Client{Transport: &transport{t: r.tr, base: f.rt}}
	}
	co, err := serve.NewCoordinator(serve.CoordConfig{
		Manifest: man, ShardURLs: urls, Client: hc, Metrics: r.reg,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = co.Start(ctx)
	cancel()
	if err != nil {
		f.close()
		return nil, err
	}
	if f.ep, err = listen(r.tr.wrap("front", 0, co.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}
