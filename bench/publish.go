package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// algInput is one algorithm of the publish workload's release set and the
// microdata it publishes.
type algInput struct {
	alg pg.Algorithm
	d   *dataset.Table
}

// runPublish is the data publisher's path. One operation is a release set:
// pg.Publish plus snapshot.Save with kd, TDS and full-domain in turn. Before
// timing, a warm-up set is checked end to end — Validate, the header CRC
// (pinned at the default seed), a mapped open with deep Verify, and
// verification queries served from the mapped snapshot over HTTP that must
// equal the in-memory index bit for bit. Every timed release must reproduce
// its warm-up CRC.
func runPublish(r *run) error {
	c := r.cfg
	var d, dfd *dataset.Table
	if err := r.timeSetups(func() error {
		var err error
		if d, err = sal.Generate(c.publishN, r.seed); err != nil {
			return err
		}
		dfd, err = sal.Generate(c.fullDomainN, r.seed)
		return err
	}); err != nil {
		return err
	}
	hiers := sal.Hierarchies(d.Schema)
	algs := []algInput{{pg.KD, d}, {pg.TDS, d}, {pg.FullDomain, dfd}}

	v := &verifier{r: r}
	defer v.close()
	crcs := map[pg.Algorithm]uint32{}
	for _, a := range algs {
		pub, path, _, err := r.publishRelease(a, hiers)
		if err != nil {
			return err
		}
		crc, err := v.verify(a.alg, pub, path)
		if err != nil {
			return err
		}
		crcs[a.alg] = crc
	}
	if r.trace {
		if err := r.recordRequests(v.plain, v.traced, v.replay); err != nil {
			return err
		}
		r.recordCapacity(v.plain, v.plainNS)
		r.recordCounters()
		return r.publishLedger(algs, hiers)
	}
	r.recordCounters()

	if err := resetPeakRSS(); err != nil {
		return err
	}
	var sets []float64
	perAlg := map[string][]float64{}
	start := clock()
	for len(sets) == 0 || clock()-start < int64(r.window) {
		// Each set starts from a collected heap, so the garbage of one set is
		// not collected inside the next one's timing.
		runtime.GC()
		var total float64
		for _, a := range algs {
			pub, path, ns, err := r.publishRelease(a, hiers)
			if err != nil {
				return err
			}
			total += ns
			perAlg[a.alg.String()] = append(perAlg[a.alg.String()], ns/1e6)
			r.checkRelease(a.alg, pub, path, crcs[a.alg])
		}
		sets = append(sets, total)
	}
	r.set("latency_ms", median(sets)/1e6)
	r.note("release_sets", len(sets))
	r.note("release_ms_by_algorithm", perAlg)
	return nil
}

// publishRelease runs one timed publish: pg.Publish plus snapshot.Save. It
// returns the elapsed ns of the two together.
func (r *run) publishRelease(a algInput, hiers []*hierarchy.Hierarchy) (*pg.Published, string, float64, error) {
	r.attempted.Add(1)
	path := filepath.Join(r.dir, a.alg.String()+".pgsnap")
	t0 := clock()
	pub, err := pg.Publish(a.d, hiers, r.pgConfig(a.alg))
	if err != nil {
		return nil, "", 0, fmt.Errorf("%s publish: %w", a.alg, err)
	}
	if err := snapshot.Save(path, pub, nil); err != nil {
		return nil, "", 0, fmt.Errorf("%s save: %w", a.alg, err)
	}
	return pub, path, float64(clock() - t0), nil
}

// checkRelease validates a timed release and compares its header CRC with
// the warm-up release of the same algorithm.
func (r *run) checkRelease(alg pg.Algorithm, pub *pg.Published, path string, want uint32) {
	if err := pub.Validate(); err != nil {
		r.fail(true, "%s release invalid: %v", alg, err)
		return
	}
	crc, err := snapshot.HeaderCRC(path)
	switch {
	case err != nil:
		r.fail(false, "%s release: %v", alg, err)
	case crc != want:
		r.fail(true, "%s release: header CRC %08x, the warm-up release had %08x", alg, crc, want)
	}
}

// verifier runs the publish workload's end-to-end round trip and keeps its
// traffic for the traced breakdown.
type verifier struct {
	r             *run
	plain, traced []exchange
	plainNS       int64              // length of the untraced passes
	items         []verifyItem       // indexed by exchange item across all releases
	mapped        []*snapshot.Mapped // kept open for the replay after the run
}

func (v *verifier) close() {
	for _, m := range v.mapped {
		m.Close()
	}
}

type verifyItem struct {
	e  *entry
	ix *query.Index // the served, mapped index
}

func (v *verifier) verify(alg pg.Algorithm, pub *pg.Published, path string) (uint32, error) {
	r := v.r
	if err := pub.Validate(); err != nil {
		r.fail(true, "%s release invalid: %v", alg, err)
	}
	crc, err := snapshot.HeaderCRC(path)
	if err != nil {
		return 0, err
	}
	if want, ok := pinnedCRC[alg]; ok && r.seed == defaultSeed && r.cfg.publishN == fullConfig().publishN && crc != want {
		r.fail(true, "%s release at the default seed: header CRC %08x, pinned %08x", alg, crc, want)
	}
	r.note("crc_"+alg.String(), fmt.Sprintf("%08x", crc))
	m, err := snapshot.OpenMapped(path)
	if err != nil {
		return 0, err
	}
	v.mapped = append(v.mapped, m)
	if err := m.Verify(); err != nil {
		r.fail(true, "%s release: mapped verify: %v", alg, err)
	}
	ref, err := query.NewIndex(pub)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(par.SplitSeed(r.seed, 10+int(alg))))
	pool, err := buildPool(pub.Schema, r.cfg.verify, rng, mixedSpec, keepExact(ref))
	if err != nil {
		return 0, err
	}
	meta, err := pub.Metadata(0, 0)
	if err != nil {
		return 0, err
	}
	base := len(v.items)
	for i := range pool {
		v.items = append(v.items, verifyItem{e: &pool[i], ix: m.Index})
	}
	// Each pass gets a fresh server, so the traced pass computes its answers
	// like the untraced one instead of reading them from the cache.
	pass := func(traced bool) ([]exchange, int64, error) {
		srv, err := serve.New(serve.Config{Index: m.Index, Meta: meta, Metrics: r.reg})
		if err != nil {
			return nil, 0, err
		}
		ep, err := listen(r.tr.wrap("front", 0, srv.Handler()))
		if err != nil {
			return nil, 0, err
		}
		defer ep.close()
		s := newSenders(runtime.GOMAXPROCS(0))
		defer closeSenders(s)
		prep := func(*exchange) {}
		if traced {
			prep = func(e *exchange) { e.trace = r.traceSeq.Add(1) }
		}
		i := 0
		next := func() (int, bool) {
			i++
			return base + i - 1, i <= len(pool)
		}
		ex, ns := closedLoop(s, next, prep, func(s *sender, e *exchange) {
			s.post(ep.url+"/v1/query", v.items[e.item].e.body, e)
		})
		v.check(ex)
		return ex, ns, nil
	}
	ex, ns, err := pass(false)
	if err != nil {
		return 0, err
	}
	v.plain = append(v.plain, ex...)
	v.plainNS += ns
	if r.trace {
		if ex, _, err = pass(true); err != nil {
			return 0, err
		}
		v.traced = append(v.traced, ex...)
	}
	return crc, nil
}

func (v *verifier) check(ex []exchange) {
	r := v.r
	r.sent.Add(int64(len(ex)))
	for i := range ex {
		e := &ex[i]
		r.attempted.Add(1)
		if e.err != nil {
			r.fail(false, "publish round trip: %v", e.err)
			continue
		}
		if want := v.items[e.item].e.want; math.Float64bits(e.estimate) != math.Float64bits(want) {
			r.fail(true, "publish round trip: served %v, in-memory index %v", e.estimate, want)
		}
	}
}

func (v *verifier) replay(sp *span, e *exchange) (int64, bool) {
	it := v.items[e.item]
	t0 := clock()
	_, err := exact(it.ix, it.e.op, it.e.q)
	return clock() - t0, err == nil
}

// publishLedger is the traced publish run: release sets timed layer by
// layer, for the measured window.
func (r *run) publishLedger(algs []algInput, hiers []*hierarchy.Hierarchy) error {
	var reps []ledger
	start := clock()
	for len(reps) == 0 || clock()-start < int64(r.window) {
		var set ledger
		for _, a := range algs {
			l, err := r.measureLedger(publishOne(a.d, hiers, r.pgConfig(a.alg)), filepath.Join(r.dir, "ledger-"+a.alg.String()))
			if err != nil {
				return fmt.Errorf("layer ledger: %w", err)
			}
			set.add(l)
		}
		reps = append(reps, set)
	}
	r.recordLedger(reps)
	return nil
}
