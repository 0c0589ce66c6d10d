package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// This file is the fan-out coordinator: the front of a sharded release. A
// Coordinator is a Server whose backend is a remoteGroup — the release's
// shard servers, reached over shard streams. Decoding, admission, the result
// cache, singleflight, the request deadline, DP charging and noise, the
// X-PG-Release header and reload are the Server's one code path; what this
// file adds is the transport:
//
//   - merge: count, naive and sum are additive — the merged answer is the
//     shard-order sum of per-shard estimates, the same arithmetic as
//     shard.Group, so the coordinator and the in-process composition agree
//     bit for bit. avg is not additive: AvgParts fans out as sum (whose
//     response carries the (inverted sum, weight) compose pair even for an
//     empty region, where a per-shard avg would error) and the Server
//     answers Σ sums / Σ weights.
//   - tail control: every fan-out runs under one shard timeout, and a
//     hedged duplicate is launched when a shard's first attempt outlives its
//     observed p95 latency (first response wins, the loser is abandoned to
//     the shared context).
//   - the wire: each shard call is one frame exchange on a persistent
//     shard stream (stream.go) — an HTTP/1.1 connection the shard's own
//     handler upgraded — in the binary shard codec (shardcodec.go), on the
//     calling goroutine. Each shard keeps a pool of idle streams. Clients of
//     the coordinator still speak JSON, and the metadata and health probes
//     stay plain HTTP requests.
//   - loud partial failure: if any shard fails after retries and hedges,
//     the query fails naming that shard (shardFailure) rather than
//     answering a silently-partial aggregate.
//   - fleet validation: Start and every reload check each shard's
//     /v1/metadata against the manifest and decode the schema the Server
//     parses queries against.

// CoordConfig parameterizes a Coordinator.
type CoordConfig struct {
	// Manifest describes the sharded release (required).
	Manifest *snapshot.Manifest
	// ShardURLs is one plain http:// base URL per manifest shard, in shard
	// order (required). Shard i of the manifest must be served at
	// ShardURLs[i]; Start verifies that over HTTP.
	ShardURLs []string
	// ShardTimeout bounds one shard call, hedges included. Default 5s.
	ShardTimeout time.Duration
	// HedgeAfter is the hedge delay used until a shard has enough latency
	// samples for a p95 estimate (after which the live p95 is the delay).
	// Default 25ms; negative disables hedging entirely.
	HedgeAfter time.Duration
	// Client optionally overrides the HTTP client of the shards' metadata
	// and health probes (default http.DefaultClient). Queries and batches
	// never use it: they go over the coordinator's own shard streams.
	Client *http.Client
	// Metrics optionally receives the coord.* instrumentation. nil disables.
	Metrics *obs.Registry
	// ManifestSource re-reads the shard manifest and its file CRC (the
	// -manifest path, in pgserve). Reload calls it when the sharded release
	// has been re-published and every shard has hot-swapped: the
	// coordinator adopts the new manifest and re-validates the fleet
	// against it. nil disables reloading.
	ManifestSource func() (*snapshot.Manifest, uint32, error)
	// DP enables the differential-privacy serving mode at the coordinator
	// (docs/DP.md). The budget is charged once per client query — never per
	// shard — and the noise is added once, to the merged answer; Start
	// refuses shards that are themselves in DP mode. nil serves exact merged
	// answers.
	DP *DPConfig
	// CRC identifies the sharded release for DP noise keying and the
	// X-PG-Release header: the manifest file's CRC (snapshot.FileCRC). 0
	// leaves answers keyed to release 0.
	CRC uint32
}

// Coordinator is a Server over the shard servers of a sharded release.
// Build with NewCoordinator, then call Start to validate the fleet before
// exposing Handler: the Server's API plus GET /v1/shards, per-shard health.
type Coordinator struct {
	*Server

	man          *snapshot.Manifest // what Start validates against
	crc          uint32
	source       func() (*snapshot.Manifest, uint32, error)
	shards       []*coordShard
	shardTimeout time.Duration
	hedgeAfter   time.Duration
	hc           *http.Client

	met struct {
		fanout      *obs.Histogram
		hedgeFired  *obs.Counter
		hedgeWon    *obs.Counter
		shardErrors *obs.Counter
		shardTO     *obs.Counter
	}
}

// coordShard is the coordinator's view of one shard server: its address,
// latency and error record, and its pool of idle shard streams.
type coordShard struct {
	index  int
	url    string
	host   string // the URL's host, for the upgrade's Host header
	addr   string // host:port the streams dial
	path   string // the stream endpoint's request target
	lat    latTracker
	errors atomic.Int64

	dialer net.Dialer
	mu     sync.Mutex
	idle   []*clientStream
}

// newCoordShard parses a shard's base URL, which must be plain http.
func newCoordShard(index int, raw string) (*coordShard, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d: %w", index, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("serve: shard %d: URL %q: want http://host[:port]", index, raw)
	}
	sh := &coordShard{index: index, url: raw, host: u.Host, addr: u.Host,
		path: strings.TrimSuffix(u.EscapedPath(), "/") + streamPath}
	if u.Port() == "" {
		sh.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return sh, nil
}

// NewCoordinator validates the configuration and builds a Coordinator.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("serve: CoordConfig.Manifest is required")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.ShardURLs) != len(cfg.Manifest.Shards) {
		return nil, fmt.Errorf("serve: %d shard URLs for a %d-shard manifest",
			len(cfg.ShardURLs), len(cfg.Manifest.Shards))
	}
	srv, err := newServer(Config{Metrics: cfg.Metrics, DP: cfg.DP, prefix: "coord"})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Server:       srv,
		man:          cfg.Manifest,
		crc:          cfg.CRC,
		source:       cfg.ManifestSource,
		shardTimeout: cfg.ShardTimeout,
		hedgeAfter:   cfg.HedgeAfter,
		hc:           cfg.Client,
	}
	if c.shardTimeout <= 0 {
		c.shardTimeout = 5 * time.Second
	}
	if c.hedgeAfter == 0 {
		c.hedgeAfter = 25 * time.Millisecond
	}
	if c.hc == nil {
		c.hc = http.DefaultClient
	}
	for i, u := range cfg.ShardURLs {
		if u == "" {
			return nil, fmt.Errorf("serve: shard %d has an empty URL", i)
		}
		sh, err := newCoordShard(i, u)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	srv.load = c.loadFleet
	srv.routes = map[string]http.HandlerFunc{"/v1/shards": c.handleShards}
	reg := cfg.Metrics
	c.met.fanout = reg.Histogram("coord.fanout.latency", "ns")
	c.met.hedgeFired = reg.Counter("coord.hedge.fired")
	c.met.hedgeWon = reg.Counter("coord.hedge.won")
	c.met.shardErrors = reg.Counter("coord.shard.errors")
	c.met.shardTO = reg.Counter("coord.shard.timeouts")
	return c, nil
}

// Start validates every shard server against the manifest over HTTP (see
// validate) and installs the merged release: the coordinator is then ready
// to serve.
func (c *Coordinator) Start(ctx context.Context) error {
	rel, err := c.validate(ctx, c.man, c.crc)
	if err != nil {
		return err
	}
	c.install(rel)
	return nil
}

// loadFleet is the coordinator's reload loader — its half of a rolling
// hot-swap: re-publish the sharded release, reload every shard server, then
// reload the coordinator. It re-reads the manifest and re-validates the
// whole fleet against it, so the swap is all-or-nothing: any failure leaves
// the coordinator serving the old release. Rejections (no ManifestSource, a
// manifest whose shard count no longer matches the configured URLs, a
// fleet still mid-rollout) return ErrReloadRejected.
func (c *Coordinator) loadFleet(ctx context.Context, _ *release) (*release, error) {
	if c.source == nil {
		return nil, rejectf("this coordinator has no manifest path to reload from")
	}
	man, crc, err := c.source()
	if err != nil {
		return nil, fmt.Errorf("serve: reloading manifest: %w", err)
	}
	if err := man.Validate(); err != nil {
		return nil, rejectf("%v", err)
	}
	if len(man.Shards) != len(c.shards) {
		return nil, rejectf("the new manifest has %d shards, this coordinator fans out to %d fixed shard URLs",
			len(man.Shards), len(c.shards))
	}
	return c.validate(ctx, man, crc)
}

// validate probes every shard's /v1/metadata and checks the fleet against
// man: parameters, per-shard row counts, one schema, and — when the shards
// serve chained releases — one common release. It returns the release the
// fleet serves, merged: rows and groups summed, shard 0's schema and chain
// block, crc as its identity.
func (c *Coordinator) validate(ctx context.Context, man *snapshot.Manifest, crc uint32) (*release, error) {
	type shardMeta struct {
		md  MetadataResponse
		err error
	}
	metas := make([]shardMeta, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *coordShard) {
			defer wg.Done()
			metas[i].md, metas[i].err = c.fetchMetadata(ctx, sh)
		}(i, sh)
	}
	wg.Wait()

	var (
		md0    = metas[0].md
		schema *dataset.Schema
		rows   int
		groups int
	)
	for i := range metas {
		url := c.shards[i].url
		if metas[i].err != nil {
			return nil, fmt.Errorf("serve: shard %d (%s): %w", i, url, metas[i].err)
		}
		md := metas[i].md
		if md.Shards != 0 {
			return nil, fmt.Errorf("serve: shard %d (%s) is itself a coordinator", i, url)
		}
		if md.DP != nil {
			return nil, fmt.Errorf("serve: shard %d (%s) is itself in DP mode — noise is added exactly once, at the coordinator; run shard servers exact", i, url)
		}
		if md.P != man.P || md.K != man.K || md.Algorithm != man.Algorithm {
			return nil, fmt.Errorf("serve: shard %d (%s) serves (%s, p=%v, k=%d), manifest says (%s, p=%v, k=%d)",
				i, url, md.Algorithm, md.P, md.K, man.Algorithm, man.P, man.K)
		}
		if md.Rows != man.Shards[i].Rows {
			return nil, fmt.Errorf("serve: shard %d (%s) serves %d rows, manifest records %d",
				i, url, md.Rows, man.Shards[i].Rows)
		}
		if md.Schema == nil {
			return nil, fmt.Errorf("serve: shard %d (%s) serves no schema block", i, url)
		}
		if i == 0 {
			var err error
			if schema, err = md.Schema.schema(); err != nil {
				return nil, fmt.Errorf("serve: shard 0 (%s): %w", url, err)
			}
		} else if !reflect.DeepEqual(md.Schema, md0.Schema) {
			return nil, fmt.Errorf("serve: shard %d (%s) serves a different schema than shard 0", i, url)
		}
		if rel0, rel := md0.Release, md.Release; (rel0 == nil) != (rel == nil) ||
			(rel != nil && rel.Release != rel0.Release) {
			return nil, rejectf("shard %d (%s) serves release %s, shard 0 serves %s — the fleet is mid-rollout; reload again once every shard has swapped",
				i, url, releaseLabel(rel), releaseLabel(rel0))
		}
		rows += md.Rows
		groups += md.Groups
	}

	rel := &release{
		answer:   &remoteGroup{c: c, schema: schema, shards: c.shards, man: man},
		pins:     make([]Answerer, len(c.shards)),
		computed: "merged",
		schema:   schema,
		meta:     md0.Metadata,
		groups:   groups,
		number:   -1,
		crc:      crc,
		chain:    md0.Release,
	}
	rel.meta.Rows = rows
	for i, sh := range c.shards {
		rel.pins[i] = &remoteGroup{c: c, schema: schema, shards: []*coordShard{sh}}
	}
	if rel.chain != nil {
		rel.number = rel.chain.Release
	}
	return rel, nil
}

func releaseLabel(ch *snapshot.ChainMetadata) string {
	if ch == nil {
		return "no chain"
	}
	return fmt.Sprintf("%d", ch.Release)
}

func (c *Coordinator) fetchMetadata(ctx context.Context, sh *coordShard) (MetadataResponse, error) {
	var md MetadataResponse
	ctx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/v1/metadata", nil)
	if err != nil {
		return md, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return md, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return md, fmt.Errorf("metadata returned HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&md); err != nil {
		return md, fmt.Errorf("decoding metadata: %w", err)
	}
	return md, nil
}

// ShardStatus is one entry of the GET /v1/shards document.
type ShardStatus struct {
	Shard   int    `json:"shard"`
	URL     string `json:"url"`
	Rows    int    `json:"rows"`
	Healthy bool   `json:"healthy"`
	P95us   int64  `json:"p95_us"` // observed query p95; 0 until enough samples
	Errors  int64  `json:"errors"` // failed shard calls since start
}

// handleShards live-probes every shard's /healthz and reports per-shard
// status: the coordinator's operational view of the fleet.
func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	man := c.rel.Load().answer.(*remoteGroup).man
	out := make([]ShardStatus, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *coordShard) {
			defer wg.Done()
			out[i] = ShardStatus{
				Shard:   i,
				URL:     sh.url,
				Rows:    man.Shards[i].Rows,
				Healthy: c.probeHealth(r.Context(), sh),
				P95us:   sh.lat.p95().Microseconds(),
				Errors:  sh.errors.Load(),
			}
		}(i, sh)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) probeHealth(ctx context.Context, sh *coordShard) bool {
	ctx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ---------------------------------------------------------------------------
// The remote backend

// remoteGroup is the Answerer of a coordinator's release: shard servers
// answering over shard streams, merged in shard order. A release holds the
// full group and one single-shard view per shard for pinned queries; all
// share the coordinator's shard state (latency trackers, error counts, idle
// streams).
type remoteGroup struct {
	c      *Coordinator
	schema *dataset.Schema
	shards []*coordShard
	man    *snapshot.Manifest // the validated manifest; nil on a one-shard view
}

func (g *remoteGroup) Count(ctx context.Context, q query.CountQuery) (float64, error) {
	return g.additive(ctx, "count", q)
}

func (g *remoteGroup) Naive(ctx context.Context, q query.CountQuery) (float64, error) {
	return g.additive(ctx, "naive", q)
}

// additive fans op out and sums the shard estimates in shard order.
func (g *remoteGroup) additive(ctx context.Context, op string, q query.CountQuery) (float64, error) {
	replies, err := g.fanOut(ctx, appendShardQuery(requestFrame(frameQuery), g.schema, op, q, nil))
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, b := range replies {
		est, _, _, _, err := decodeQueryReply(b)
		if err != nil {
			return 0, g.shards[i].failure(0, "undecodable response: %v", err)
		}
		total += est
	}
	return total, nil
}

// AvgParts fans the query out as sum and adds the compose pairs in shard
// order.
func (g *remoteGroup) AvgParts(ctx context.Context, q query.CountQuery, values []float64) (sum, weight float64, err error) {
	replies, err := g.fanOut(ctx, appendShardQuery(requestFrame(frameQuery), g.schema, "sum", q, values))
	if err != nil {
		return 0, 0, err
	}
	for i, b := range replies {
		_, s, w, parts, err := decodeQueryReply(b)
		if err != nil {
			return 0, 0, g.shards[i].failure(0, "undecodable response: %v", err)
		}
		if !parts {
			return 0, 0, g.shards[i].failure(0, "response lacks the sum/weight compose pair")
		}
		sum += s
		weight += w
	}
	return sum, weight, nil
}

// AnswerWorkload fans the workload out as one batch frame per shard and adds
// the answers elementwise in shard order. Each shard applies its own batch
// fan-out.
func (g *remoteGroup) AnswerWorkload(ctx context.Context, qs []query.CountQuery) ([]float64, error) {
	replies, err := g.fanOut(ctx, appendShardBatch(requestFrame(frameBatch), g.schema, qs))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	for i, b := range replies {
		if err := addEstimates(out, b); err != nil {
			return nil, g.shards[i].failure(0, "undecodable response: %v", err)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Shard calls: timeout + hedging

// shardFailure is a failed shard call. status is the shard's non-2xx reply
// status, 0 when the shard gave no usable answer (unreachable, timed out,
// undecodable, a refused stream).
type shardFailure struct {
	shard  int
	url    string
	status int
	msg    string
}

func (f *shardFailure) Error() string {
	if f.status != 0 {
		return fmt.Sprintf("shard %d (%s): HTTP %d: %s", f.shard, f.url, f.status, f.msg)
	}
	return fmt.Sprintf("shard %d (%s): %s", f.shard, f.url, f.msg)
}

// rejected reports whether the shard judged the query itself invalid (or
// shed it): a duplicate would be answered identically, so such a failure
// is not hedged and does not count against the shard.
func (f *shardFailure) rejected() bool { return f.status >= 400 && f.status < 500 }

// response maps the failure onto the client's answer. A shed (429) or
// timed-out (504) shard passes through with its status, so clients keep
// their retry semantics; another 4xx means the query is wrong, not the
// shard: 400 with the shard's message. Everything else is a dead shard:
// 502. Every message names the shard.
func (f *shardFailure) response() (status int, msg string) {
	switch {
	case f.status == http.StatusTooManyRequests || f.status == http.StatusGatewayTimeout:
		return f.status, fmt.Sprintf("shard %d: %s", f.shard, f.msg)
	case f.rejected():
		return http.StatusBadRequest, fmt.Sprintf("shard %d: %s", f.shard, f.msg)
	default:
		return http.StatusBadGateway, f.Error()
	}
}

func (sh *coordShard) failure(status int, format string, args ...any) *shardFailure {
	return &shardFailure{shard: sh.index, url: sh.url, status: status, msg: fmt.Sprintf(format, args...)}
}

// fanOut sends frame, a request frame from requestFrame whose length it
// fills in, to every shard of the group and returns the reply bodies in
// shard order, or the lowest-indexed shard's failure. One loop
// drives every call under one ShardTimeout, one goroutine per attempt: each
// shard's first attempt starts at once; a hedge — a duplicate attempt —
// starts when the first outlives the shard's hedge delay (one timer, armed
// at the earliest pending delay) or fails first; the first response wins
// and the loser is abandoned to the shared context. A 4xx is the query's
// fault, not the shard's, so it is not hedged. Every error is a
// *shardFailure.
func (g *remoteGroup) fanOut(ctx context.Context, frame []byte) ([][]byte, error) {
	if err := sealFrame(frame); err != nil {
		return nil, err
	}
	c := g.c
	t0 := time.Now()
	defer func() { c.met.fanout.Observe(time.Since(t0).Nanoseconds()) }()
	ctx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()

	type result struct {
		shard  int
		hedged bool
		reply  []byte
		err    *shardFailure
	}
	// Room for two attempts per shard, so an abandoned one never blocks.
	ch := make(chan result, 2*len(g.shards))
	attempt := func(i int, hedged bool) {
		sh := g.shards[i]
		t := time.Now()
		b, err := sh.post(ctx, frame)
		if err == nil {
			sh.lat.observe(time.Since(t))
		}
		ch <- result{i, hedged, b, err}
	}

	// call is one shard's state. hedgeAt is when its hedge is due; zero once
	// the hedge has fired, or when hedging is off.
	type call struct {
		hedgeAt  time.Time
		inFlight int
		done     bool
		first    *shardFailure
		reply    []byte
		err      *shardFailure
	}
	calls := make([]call, len(g.shards))
	pending := len(calls)
	finish := func(i int, reply []byte, err *shardFailure) {
		calls[i].done, calls[i].reply, calls[i].err = true, reply, err
		pending--
	}
	hedge := func(i int) {
		calls[i].hedgeAt = time.Time{}
		calls[i].inFlight++
		c.met.hedgeFired.Inc()
		go attempt(i, true)
	}
	var (
		timer  *time.Timer
		timerC <-chan time.Time
	)
	// arm points the timer at the earliest hedge still due. It runs only
	// before the timer is first set and after it has fired, so the timer
	// never needs draining.
	arm := func() {
		var next time.Time
		for i := range calls {
			if at := calls[i].hedgeAt; !calls[i].done && !at.IsZero() && (next.IsZero() || at.Before(next)) {
				next = at
			}
		}
		switch {
		case next.IsZero():
			timerC = nil
		case timer == nil:
			timer = time.NewTimer(time.Until(next))
			timerC = timer.C
		default:
			timer.Reset(time.Until(next))
			timerC = timer.C
		}
	}
	for i, sh := range g.shards {
		calls[i].inFlight = 1
		if d := c.hedgeDelay(sh); d >= 0 {
			calls[i].hedgeAt = t0.Add(d)
		}
		go attempt(i, false)
	}
	arm()
	for pending > 0 {
		select {
		case <-ctx.Done():
			for i, sh := range g.shards {
				if !calls[i].done {
					c.met.shardTO.Inc()
					sh.errors.Add(1)
					finish(i, nil, sh.failure(0, "no answer within %v: %v", c.shardTimeout, ctx.Err()))
				}
			}
		case <-timerC:
			now := time.Now()
			for i := range calls {
				if at := calls[i].hedgeAt; !calls[i].done && !at.IsZero() && !now.Before(at) {
					hedge(i)
				}
			}
			arm()
		case r := <-ch:
			cl := &calls[r.shard]
			if cl.done {
				continue // the loser of a decided shard
			}
			cl.inFlight--
			switch {
			case r.err == nil:
				if r.hedged {
					c.met.hedgeWon.Inc()
				}
				finish(r.shard, r.reply, nil)
			case r.err.rejected():
				finish(r.shard, nil, r.err)
			default:
				if cl.first == nil {
					cl.first = r.err
				}
				switch {
				case cl.inFlight > 0:
					// The other attempt may yet succeed.
				case !cl.hedgeAt.IsZero():
					// Fire the hedge now rather than wait out the timer
					// against a shard that just failed fast.
					hedge(r.shard)
				default:
					c.met.shardErrors.Inc()
					g.shards[r.shard].errors.Add(1)
					finish(r.shard, nil, cl.first)
				}
			}
		}
	}
	if timer != nil {
		timer.Stop()
	}
	replies := make([][]byte, len(calls))
	for i := range calls {
		if calls[i].err != nil {
			return nil, calls[i].err
		}
		replies[i] = calls[i].reply
	}
	return replies, nil
}

// hedgeDelay picks the hedge trigger for a shard: its observed p95 once
// there are enough samples, the configured default before that, or -1 when
// hedging is disabled.
func (c *Coordinator) hedgeDelay(sh *coordShard) time.Duration {
	if c.hedgeAfter < 0 {
		return -1
	}
	if p95 := sh.lat.p95(); p95 > 0 {
		return p95
	}
	return c.hedgeAfter
}

// post sends one request frame to the shard and returns the codec reply. A
// non-200 reply carries the shard's JSON errorResponse.
func (sh *coordShard) post(ctx context.Context, frame []byte) ([]byte, *shardFailure) {
	status, body, err := sh.call(ctx, frame)
	if err != nil {
		return nil, sh.failure(0, "%v", err)
	}
	if status != http.StatusOK {
		var er errorResponse
		msg := string(body)
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, sh.failure(status, "%s", msg)
	}
	return body, nil
}

// ---------------------------------------------------------------------------
// Per-shard latency tracking

// latSamples is the ring capacity of a shard's latency tracker; latRecalc
// is how many observations go by between p95 recomputations.
const (
	latSamples = 128
	latRecalc  = 16
	latMin     = 8 // no p95 estimate below this many samples
)

// latTracker keeps a small ring of recent shard-call latencies and a
// periodically recomputed p95 — the hedge trigger. It is deliberately
// self-contained (not an obs.Histogram) so it works identically with
// metrics disabled.
type latTracker struct {
	mu    sync.Mutex
	ring  [latSamples]time.Duration
	n     int // total observations
	p95ns atomic.Int64
}

func (t *latTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n%latSamples] = d
	t.n++
	if t.n >= latMin && t.n%latRecalc == 0 {
		size := t.n
		if size > latSamples {
			size = latSamples
		}
		buf := make([]time.Duration, size)
		copy(buf, t.ring[:size])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		t.p95ns.Store(int64(buf[(size*95+99)/100-1]))
	}
	t.mu.Unlock()
}

// p95 returns the current estimate, or 0 while there are too few samples.
func (t *latTracker) p95() time.Duration {
	return time.Duration(t.p95ns.Load())
}
