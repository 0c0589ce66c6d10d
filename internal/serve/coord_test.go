package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/shard"
	"pgpub/internal/snapshot"
)

// coordFixture is a running sharded deployment: S shard servers on
// loopback, their in-memory manifest, and a started coordinator.
type coordFixture struct {
	pubs  []*pg.Published
	group *shard.Group
	coord *Coordinator
	reg   *obs.Registry
	hss   []*HTTPServer
}

// newCoordFixture publishes SAL into s shards, serves every shard on
// loopback and starts a coordinator over them.
func newCoordFixture(t testing.TB, n, s int, cfg func(*CoordConfig)) *coordFixture {
	t.Helper()
	d, err := sal.Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := pg.PublishSharded(d, sal.Hierarchies(d.Schema), pg.Config{
		K: 6, P: 0.3, Algorithm: pg.KD, Seed: 11,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := shard.NewGroup(pubs)
	if err != nil {
		t.Fatal(err)
	}

	f := &coordFixture{pubs: pubs, group: g, reg: obs.NewRegistry()}
	man := &snapshot.Manifest{
		K: 6, P: 0.3, Algorithm: pg.KD.String(), Seed: 11, SourceRows: n,
		Shards: make([]snapshot.ShardEntry, s),
	}
	urls := make([]string, s)
	for i, pub := range pubs {
		// The snapshots never touch disk here; the coordinator validates the
		// shards over HTTP, not the files, so the entries carry placeholder
		// paths and unchecked CRCs.
		man.Shards[i] = snapshot.ShardEntry{
			Path: fmt.Sprintf("inproc-%02d.pgsnap", i), Rows: pub.Len(),
			SourceRows: (n + s - 1 - i) / s,
		}
		meta, err := pub.Metadata(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Indexes are immutable, so the shard server shares the group's.
		srv := newTestServer(t, Config{Index: g.Indexes[i], Meta: meta})
		hs, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hs.Close() })
		f.hss = append(f.hss, hs)
		urls[i] = "http://" + hs.Addr
	}

	cc := CoordConfig{Manifest: man, ShardURLs: urls, Metrics: f.reg}
	if cfg != nil {
		cfg(&cc)
	}
	c, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	f.coord = c
	return f
}

// wireQuery renders an in-process CountQuery as the /v1/query body.
func wireQuery(op string, q query.CountQuery) QueryRequest {
	req := QueryRequest{Op: op}
	for j, r := range q.QI {
		dim := j
		req.Where = append(req.Where, WhereClause{
			Dim: &dim,
			Lo:  json.RawMessage(fmt.Sprintf("%d", r.Lo)),
			Hi:  json.RawMessage(fmt.Sprintf("%d", r.Hi)),
		})
	}
	for code, in := range q.Sensitive {
		if in {
			req.Sensitive = append(req.Sensitive, int32(code))
		}
	}
	return req
}

// TestCoordinatorMatchesGroup is the distributed-equivalence anchor: every
// op answered through the fan-out coordinator must equal the in-process
// shard.Group composition bit for bit — same arithmetic, same shard order.
func TestCoordinatorMatchesGroup(t *testing.T) {
	f := newCoordFixture(t, 2000, 4, nil)
	h := f.coord.Handler()
	g := f.group

	rng := rand.New(rand.NewSource(5))
	qs, err := query.Workload(g.Schema(), query.WorkloadConfig{
		Queries: 24, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.5, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		want, err := g.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		var resp QueryResponse
		if code := post(t, h, "/v1/query", wireQuery("count", q), &resp); code != http.StatusOK {
			t.Fatalf("query %d: status %d", qi, code)
		}
		if math.Float64bits(resp.Estimate) != math.Float64bits(want) {
			t.Fatalf("query %d: coordinator count %v, group %v", qi, resp.Estimate, want)
		}
		if resp.Source != "merged" {
			t.Fatalf("query %d: source %q", qi, resp.Source)
		}

		uq := q
		uq.Sensitive = nil
		wantN, err := g.Naive(uq)
		if err != nil {
			t.Fatal(err)
		}
		if post(t, h, "/v1/query", wireQuery("naive", uq), &resp); math.Float64bits(resp.Estimate) != math.Float64bits(wantN) {
			t.Fatalf("query %d: coordinator naive %v, group %v", qi, resp.Estimate, wantN)
		}

		wantSum, wantW, err := g.AvgParts(uq, query.IncomeMidpoint)
		if err != nil {
			t.Fatal(err)
		}
		req := wireQuery("sum", uq)
		req.Values = incomeValues(g.Schema().SensitiveDomain())
		if code := post(t, h, "/v1/query", req, &resp); code != http.StatusOK {
			t.Fatalf("query %d sum: status %d", qi, code)
		}
		if resp.Sum == nil || resp.Weight == nil {
			t.Fatalf("query %d: sum response lacks the compose pair", qi)
		}
		if math.Float64bits(*resp.Sum) != math.Float64bits(wantSum) ||
			math.Float64bits(*resp.Weight) != math.Float64bits(wantW) {
			t.Fatalf("query %d: coordinator pair (%v,%v), group (%v,%v)",
				qi, *resp.Sum, *resp.Weight, wantSum, wantW)
		}

		req.Op = "avg"
		code := post(t, h, "/v1/query", req, &resp)
		if wantW == 0 {
			if code != http.StatusBadRequest {
				t.Fatalf("query %d: group region empty but coordinator returned %d", qi, code)
			}
		} else {
			if code != http.StatusOK {
				t.Fatalf("query %d avg: status %d", qi, code)
			}
			if wantAvg := wantSum / wantW; math.Float64bits(resp.Estimate) != math.Float64bits(wantAvg) {
				t.Fatalf("query %d: coordinator avg %v, group %v", qi, resp.Estimate, wantAvg)
			}
		}
	}

	// Batch: elementwise identical to the composed workload.
	want, err := g.AnswerWorkload(qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var breq BatchRequest
	for _, q := range qs {
		breq.Queries = append(breq.Queries, wireQuery("count", q))
	}
	var bresp BatchResponse
	if code := post(t, h, "/v1/batch", breq, &bresp); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(bresp.Estimates) != len(want) {
		t.Fatalf("batch: %d answers for %d queries", len(bresp.Estimates), len(want))
	}
	for i := range want {
		if math.Float64bits(bresp.Estimates[i]) != math.Float64bits(want[i]) {
			t.Fatalf("batch query %d: coordinator %v, group %v", i, bresp.Estimates[i], want[i])
		}
	}

	if v := f.reg.Counter("coord.requests.query").Value(); v == 0 {
		t.Fatal("coord.requests.query never incremented")
	}
	if v := f.reg.Counter("coord.requests.batch").Value(); v != 1 {
		t.Fatalf("coord.requests.batch = %d", v)
	}
}

// incomeValues maps each sensitive code to its IncomeMidpoint value — the
// wire form of the SUM/AVG value function.
func incomeValues(domain int) []float64 {
	v := make([]float64, domain)
	for c := range v {
		v[c] = query.IncomeMidpoint(int32(c))
	}
	return v
}

// TestCoordinatorMetadata checks the merged /v1/metadata document and the
// /v1/shards fleet view.
func TestCoordinatorMetadata(t *testing.T) {
	f := newCoordFixture(t, 1500, 4, nil)
	h := f.coord.Handler()

	var md MetadataResponse
	if code := get(t, h, "/v1/metadata", &md); code != http.StatusOK {
		t.Fatalf("metadata: status %d", code)
	}
	if md.Shards != 4 || md.Rows != f.group.Rows() || md.Groups != f.group.Groups() {
		t.Fatalf("merged metadata: shards=%d rows=%d groups=%d, group has rows=%d groups=%d",
			md.Shards, md.Rows, md.Groups, f.group.Rows(), f.group.Groups())
	}
	if md.P != 0.3 || md.K != 6 || md.Algorithm != "kd" {
		t.Fatalf("merged metadata params: %+v", md)
	}

	var sts []ShardStatus
	if code := get(t, h, "/v1/shards", &sts); code != http.StatusOK {
		t.Fatalf("shards: status %d", code)
	}
	if len(sts) != 4 {
		t.Fatalf("%d shard statuses", len(sts))
	}
	for i, st := range sts {
		if st.Shard != i || !st.Healthy || st.Rows != f.pubs[i].Len() {
			t.Fatalf("shard status %d: %+v", i, st)
		}
	}
}

// get fetches path and decodes the JSON response.
func get(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

// TestCoordinatorPinnedQuery drills into one shard: the answer must be that
// shard's alone, tagged Source "shard"; out-of-range pins and pins inside
// batches are client errors.
func TestCoordinatorPinnedQuery(t *testing.T) {
	f := newCoordFixture(t, 1500, 3, nil)
	h := f.coord.Handler()

	q := query.CountQuery{QI: make([]query.Range, f.group.Schema().D())}
	for j, a := range f.group.Schema().QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	for s := 0; s < 3; s++ {
		want, err := f.group.Indexes[s].Count(q)
		if err != nil {
			t.Fatal(err)
		}
		req := wireQuery("count", q)
		pin := s
		req.Shard = &pin
		var resp QueryResponse
		if code := post(t, h, "/v1/query", req, &resp); code != http.StatusOK {
			t.Fatalf("shard %d: status %d", s, code)
		}
		if math.Float64bits(resp.Estimate) != math.Float64bits(want) {
			t.Fatalf("shard %d: pinned count %v, index %v", s, resp.Estimate, want)
		}
		if resp.Source != "shard" {
			t.Fatalf("shard %d: source %q", s, resp.Source)
		}
	}

	req := wireQuery("count", q)
	bad := 7
	req.Shard = &bad
	var er errorResponse
	if code := post(t, h, "/v1/query", req, &er); code != http.StatusBadRequest {
		t.Fatalf("out-of-range pin: status %d (%s)", code, er.Error)
	}

	breq := BatchRequest{Queries: []QueryRequest{req}}
	if code := post(t, h, "/v1/batch", breq, &er); code != http.StatusBadRequest {
		t.Fatalf("pinned batch: status %d (%s)", code, er.Error)
	}
}

// TestCoordinatorDeadShard kills one shard server mid-flight: the
// coordinator must answer 502 naming the dead shard, never a partial
// aggregate.
func TestCoordinatorDeadShard(t *testing.T) {
	f := newCoordFixture(t, 1500, 3, nil)
	h := f.coord.Handler()

	f.hss[1].Close()
	var er errorResponse
	code := post(t, h, "/v1/query", QueryRequest{Op: "naive"}, &er)
	if code != http.StatusBadGateway {
		t.Fatalf("dead shard: status %d (%s)", code, er.Error)
	}
	if !strings.Contains(er.Error, "shard 1") {
		t.Fatalf("dead shard error does not name it: %q", er.Error)
	}
	if f.reg.Counter("coord.errors").Value() == 0 {
		t.Fatal("coord.errors never incremented")
	}
}

// fakeShardMeta is the /v1/metadata document a scripted fake shard serves:
// the hospital schema, which the coordinator parses queries against.
func fakeShardMeta(rows int) MetadataResponse {
	return MetadataResponse{
		Metadata: pg.Metadata{P: 0.3, K: 6, Algorithm: "kd", Rows: rows},
		Groups:   1,
		Schema:   schemaInfo(dataset.Hospital().Schema),
	}
}

// fakeShard serves a conforming /v1/metadata and a shard stream whose every
// frame the scripted handler answers — the harness for tail-control tests
// where real publication latency is too well-behaved.
func fakeShard(t *testing.T, rows int, handler http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/metadata", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, fakeShardMeta(rows))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc(streamPath, func(w http.ResponseWriter, r *http.Request) {
		serveStream(w, r, func(w http.ResponseWriter, r *http.Request, _ byte, _ []byte) { handler(w, r) })
	})
	hs, err := serveHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return "http://" + hs.Addr
}

// fakeManifest describes a release of n single-row fake shards.
func fakeManifest(n int) *snapshot.Manifest {
	m := &snapshot.Manifest{K: 6, P: 0.3, Algorithm: "kd", Seed: 1, SourceRows: 10 * n}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, snapshot.ShardEntry{
			Path: fmt.Sprintf("fake-%02d.pgsnap", i), Rows: 10, SourceRows: 10,
		})
	}
	return m
}

// startFakeCoordinator builds and starts a coordinator over fake shards.
func startFakeCoordinator(t *testing.T, urls []string, cfg func(*CoordConfig)) (*Coordinator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cc := CoordConfig{Manifest: fakeManifest(len(urls)), ShardURLs: urls, Metrics: reg}
	if cfg != nil {
		cfg(&cc)
	}
	c, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	return c, reg
}

// TestCoordinatorHedging scripts a shard whose first answer stalls: the
// hedge must fire after HedgeAfter, win with the fast duplicate, and the
// client sees the answer long before the straggler completes.
func TestCoordinatorHedging(t *testing.T) {
	var calls atomic.Int64
	stall := 2 * time.Second
	url := fakeShard(t, 10, func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write(appendQueryReply(nil, QueryResponse{Estimate: 42}))
	})
	c, reg := startFakeCoordinator(t, []string{url}, func(cc *CoordConfig) {
		cc.HedgeAfter = 10 * time.Millisecond
	})

	t0 := time.Now()
	var resp QueryResponse
	if code := post(t, c.Handler(), "/v1/query", QueryRequest{Op: "count"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Estimate != 42 {
		t.Fatalf("estimate %v", resp.Estimate)
	}
	if el := time.Since(t0); el >= stall {
		t.Fatalf("answer took %v — the hedge never rescued the stalled call", el)
	}
	if reg.Counter("coord.hedge.fired").Value() == 0 {
		t.Fatal("coord.hedge.fired never incremented")
	}
	if reg.Counter("coord.hedge.won").Value() == 0 {
		t.Fatal("coord.hedge.won never incremented")
	}
}

// TestCoordinatorShedPassthrough pins the retry contract: a shard's 429 and
// 504 pass through with their original status (clients keep their backoff
// semantics), while a shard's 400 surfaces as a 400 naming the shard.
func TestCoordinatorShedPassthrough(t *testing.T) {
	var status atomic.Int64
	url := fakeShard(t, 10, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, int(status.Load()), errorResponse{Error: "scripted failure"})
	})
	c, _ := startFakeCoordinator(t, []string{url}, func(cc *CoordConfig) {
		cc.HedgeAfter = -1 // a hedge would be rejected identically; keep counts simple
	})

	for _, want := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout, http.StatusBadRequest} {
		status.Store(int64(want))
		var er errorResponse
		code := post(t, c.Handler(), "/v1/query", QueryRequest{Op: "count"}, &er)
		if code != want {
			t.Fatalf("shard %d passed through as %d (%s)", want, code, er.Error)
		}
		if !strings.Contains(er.Error, "shard 0") {
			t.Fatalf("shard %d error does not name the shard: %q", want, er.Error)
		}
	}

	// A 500 is a dead shard: 502.
	status.Store(http.StatusInternalServerError)
	var er errorResponse
	if code := post(t, c.Handler(), "/v1/query", QueryRequest{Op: "count"}, &er); code != http.StatusBadGateway {
		t.Fatalf("shard 500 surfaced as %d (%s)", code, er.Error)
	}
}

// TestCoordinatorStartValidation exercises the startup cross-checks: a
// shard serving the wrong row count, the wrong parameters, or another
// coordinator must all fail Start loudly.
func TestCoordinatorStartValidation(t *testing.T) {
	start := func(md MetadataResponse) error {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/metadata", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, md)
		})
		hs, err := serveHandler("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		defer hs.Close()
		c, err := NewCoordinator(CoordConfig{
			Manifest: fakeManifest(1), ShardURLs: []string{"http://" + hs.Addr},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return c.Start(ctx)
	}

	if err := start(fakeShardMeta(10)); err != nil {
		t.Fatalf("conforming shard rejected: %v", err)
	}

	md := fakeShardMeta(11)
	if err := start(md); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("row mismatch: %v", err)
	}

	md = fakeShardMeta(10)
	md.P = 0.5
	if err := start(md); err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Fatalf("parameter mismatch: %v", err)
	}

	md = fakeShardMeta(10)
	md.Shards = 2
	if err := start(md); err == nil || !strings.Contains(err.Error(), "itself a coordinator") {
		t.Fatalf("nested coordinator: %v", err)
	}

	if _, err := NewCoordinator(CoordConfig{
		Manifest: fakeManifest(2), ShardURLs: []string{"http://localhost:1"},
	}); err == nil {
		t.Fatal("URL/shard count mismatch accepted")
	}
}

// countingShard is a fake shard that answers every query with est and
// counts the calls it receives; gate, when set, holds each answer until it
// is closed.
func countingShard(t *testing.T, est float64, gate chan struct{}) (string, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	url := fakeShard(t, 10, func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		if gate != nil {
			<-gate
		}
		w.Write(appendQueryReply(nil, QueryResponse{Estimate: est}))
	})
	return url, &calls
}

// TestCoordinatorCache pins the result cache the coordinator shares with
// every server: a repeated query is answered from the cache without a
// shard call, and a reload starts the new release on an empty cache.
func TestCoordinatorCache(t *testing.T) {
	url0, calls0 := countingShard(t, 2, nil)
	url1, calls1 := countingShard(t, 3, nil)
	urls := []string{url0, url1}
	c, reg := startFakeCoordinator(t, urls, func(cc *CoordConfig) {
		cc.ManifestSource = func() (*snapshot.Manifest, uint32, error) { return fakeManifest(len(urls)), 0, nil }
	})
	h := c.Handler()
	calls := func() int64 { return calls0.Load() + calls1.Load() }

	ask := func(wantSource string) {
		t.Helper()
		var resp QueryResponse
		if code := post(t, h, "/v1/query", QueryRequest{Op: "count"}, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp.Estimate != 5 || resp.Source != wantSource {
			t.Fatalf("answer %v from %q, want 5 from %q", resp.Estimate, resp.Source, wantSource)
		}
	}
	ask("merged")
	if got := calls(); got != 2 {
		t.Fatalf("first query made %d shard calls, want 2", got)
	}
	ask("cache")
	if got := calls(); got != 2 {
		t.Fatalf("a cached answer made %d new shard calls", got-2)
	}
	if got := reg.Counter("coord.cache.hits").Value(); got != 1 {
		t.Fatalf("coord.cache.hits = %d, want 1", got)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("reload: HTTP %d %s", w.Code, w.Body.String())
	}
	ask("merged")
	if got := calls(); got != 4 {
		t.Fatalf("after a reload the query made %d shard calls, want 2 — the cache crossed the swap", got-2)
	}
}

// TestCoordinatorCoalesces fires 32 identical queries while the shards
// hold their answers: they must share one fan-out.
func TestCoordinatorCoalesces(t *testing.T) {
	gate := make(chan struct{})
	url0, calls0 := countingShard(t, 2, gate)
	url1, calls1 := countingShard(t, 3, gate)
	c, reg := startFakeCoordinator(t, []string{url0, url1}, func(cc *CoordConfig) {
		cc.HedgeAfter = -1 // a held answer must not look like a straggler
	})
	c.sem = make(chan struct{}, 64) // admit all 32 on any GOMAXPROCS
	h := c.Handler()

	const n = 32
	var wg sync.WaitGroup
	resps := make([]QueryResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, h, "/v1/query", QueryRequest{Op: "count"}, &resps[i])
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, joined := c.rel.Load().flight.stats(); joined == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the duplicates never joined one computation")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	merged := 0
	for i := range resps {
		if codes[i] != http.StatusOK || resps[i].Estimate != 5 {
			t.Fatalf("query %d: status %d, answer %v", i, codes[i], resps[i].Estimate)
		}
		if resps[i].Source == "merged" {
			merged++
		}
	}
	if merged != 1 {
		t.Fatalf("%d queries computed their own answer, want 1", merged)
	}
	if a, b := calls0.Load(), calls1.Load(); a != 1 || b != 1 {
		t.Fatalf("shard calls (%d, %d), want one fan-out", a, b)
	}
	if got := reg.Counter("coord.coalesced").Value(); got != n-1 {
		t.Fatalf("coord.coalesced = %d, want %d", got, n-1)
	}
}

// TestCoordinatorSchemaMismatch pins the schema check: Start refuses a
// fleet whose shards serve different schemas, or one that serves none.
func TestCoordinatorSchemaMismatch(t *testing.T) {
	start := func(md MetadataResponse) error {
		good, _ := countingShard(t, 1, nil)
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/metadata", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, md)
		})
		hs, err := serveHandler("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		defer hs.Close()
		c, err := NewCoordinator(CoordConfig{
			Manifest: fakeManifest(2), ShardURLs: []string{good, "http://" + hs.Addr},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return c.Start(ctx)
	}

	md := fakeShardMeta(10)
	md.Schema = schemaInfo(sal.Schema())
	if err := start(md); err == nil || !strings.Contains(err.Error(), "different schema than shard 0") {
		t.Fatalf("schema mismatch: %v", err)
	}
	md.Schema = nil
	if err := start(md); err == nil || !strings.Contains(err.Error(), "no schema block") {
		t.Fatalf("missing schema: %v", err)
	}
}
