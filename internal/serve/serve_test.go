package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
)

// hospitalIndex publishes the hospital example and builds a serving index.
func hospitalIndex(t testing.TB) (*query.Index, *pg.Published) {
	t.Helper()
	d := dataset.Hospital()
	hs := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(d.Schema.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(d.Schema.QI[1].Size()),
		hierarchy.MustInterval(d.Schema.QI[2].Size(), 5, 20),
	}
	pub, err := pg.Publish(d, hs, pg.Config{K: 2, P: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := query.NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pub
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends a JSON body and decodes a JSON response into out.
func post(t *testing.T, h http.Handler, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

// TestServedAnswersMatchIndex is the serving layer's correctness anchor:
// every op answered over HTTP equals the in-process Index answer exactly.
func TestServedAnswersMatchIndex(t *testing.T) {
	ix, _ := hospitalIndex(t)
	s := newTestServer(t, Config{Index: ix})
	h := s.Handler()

	full := func() query.CountQuery {
		q := query.CountQuery{QI: make([]query.Range, ix.Schema().D())}
		for j, a := range ix.Schema().QI {
			q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
		}
		return q
	}

	// COUNT with a named-attribute range plus a sensitive mask.
	q := full()
	q.QI[0] = query.Range{Lo: 2, Hi: 9}
	q.Sensitive = make([]bool, ix.Schema().SensitiveDomain())
	q.Sensitive[1] = true
	want, err := ix.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	var resp QueryResponse
	if code := post(t, h, "/v1/query", QueryRequest{
		Op:        "count",
		Where:     []WhereClause{{Attr: ix.Schema().QI[0].Name, Lo: json.RawMessage("2"), Hi: json.RawMessage("9")}},
		Sensitive: []int32{1},
	}, &resp); code != http.StatusOK {
		t.Fatalf("count: status %d", code)
	}
	if resp.Estimate != want {
		t.Fatalf("count over HTTP = %v, in-process = %v", resp.Estimate, want)
	}
	if resp.Source != "computed" {
		t.Fatalf("first answer source = %q", resp.Source)
	}

	// The identical request again must come from the cache, same value.
	if post(t, h, "/v1/query", QueryRequest{
		Op:        "count",
		Where:     []WhereClause{{Attr: ix.Schema().QI[0].Name, Lo: json.RawMessage("2"), Hi: json.RawMessage("9")}},
		Sensitive: []int32{1},
	}, &resp); resp.Source != "cache" || resp.Estimate != want {
		t.Fatalf("repeat answer: source=%q estimate=%v", resp.Source, resp.Estimate)
	}

	// naive, sum, avg on an unrestricted query.
	for _, op := range []string{"naive", "sum", "avg"} {
		var want float64
		var err error
		switch op {
		case "naive":
			want, err = ix.Naive(full())
		case "sum", "avg":
			var weight float64
			want, weight, err = ix.AvgParts(full(), func(c int32) float64 { return float64(c) })
			if op == "avg" {
				want /= weight
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if code := post(t, h, "/v1/query", QueryRequest{Op: op}, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", op, code)
		}
		if resp.Estimate != want {
			t.Fatalf("%s over HTTP = %v, in-process = %v", op, resp.Estimate, want)
		}
	}

	// Label bounds resolve through the attribute domain.
	age := ix.Schema().QI[0]
	q2 := full()
	q2.QI[0] = query.Range{Lo: 2, Hi: 9}
	want2, err := ix.Count(q2)
	if err != nil {
		t.Fatal(err)
	}
	if post(t, h, "/v1/query", QueryRequest{
		Where: []WhereClause{{
			Attr: age.Name,
			Lo:   json.RawMessage(fmt.Sprintf("%q", age.Label(2))),
			Hi:   json.RawMessage(fmt.Sprintf("%q", age.Label(9))),
		}},
	}, &resp); resp.Estimate != want2 {
		t.Fatalf("label-bound count = %v, want %v", resp.Estimate, want2)
	}
}

// TestBatchMatchesWorkloadAcrossWorkers pins the wire-level determinism
// contract: the batch response bytes are identical for every worker count
// and equal the in-process AnswerWorkload.
func TestBatchMatchesWorkloadAcrossWorkers(t *testing.T) {
	ix, _ := hospitalIndex(t)
	schema := ix.Schema()

	var reqs []QueryRequest
	var qs []query.CountQuery
	for lo := 0; lo < 10; lo += 2 {
		reqs = append(reqs, QueryRequest{
			Where:     []WhereClause{{Attr: schema.QI[0].Name, Lo: json.RawMessage(fmt.Sprint(lo)), Hi: json.RawMessage(fmt.Sprint(lo + 5))}},
			Sensitive: []int32{0, 1},
		})
		q := query.CountQuery{QI: make([]query.Range, schema.D())}
		for j, a := range schema.QI {
			q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
		}
		q.QI[0] = query.Range{Lo: int32(lo), Hi: int32(lo + 5)}
		q.Sensitive = make([]bool, schema.SensitiveDomain())
		q.Sensitive[0], q.Sensitive[1] = true, true
		qs = append(qs, q)
	}
	want, err := ix.AnswerWorkload(qs, 0)
	if err != nil {
		t.Fatal(err)
	}

	var bodies []string
	for _, workers := range []int{1, 2, 7} {
		s := newTestServer(t, Config{Index: ix, Workers: workers})
		buf, _ := json.Marshal(BatchRequest{Queries: reqs})
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(buf))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
		bodies = append(bodies, w.Body.String())

		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if resp.Estimates[i] != want[i] {
				t.Fatalf("workers=%d query %d: %v, want %v", workers, i, resp.Estimates[i], want[i])
			}
		}
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("batch bytes differ across worker counts:\n%s\n%s", bodies[0], b)
		}
	}
}

// fakeAnswerer is an injectable backend: it counts calls, optionally blocks
// on a gate, and optionally sleeps.
type fakeAnswerer struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, Count blocks until the gate closes
	delay time.Duration
}

func (f *fakeAnswerer) Count(_ context.Context, q query.CountQuery) (float64, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return float64(q.QI[0].Lo), nil
}
func (f *fakeAnswerer) Naive(ctx context.Context, q query.CountQuery) (float64, error) {
	return f.Count(ctx, q)
}
func (f *fakeAnswerer) AvgParts(ctx context.Context, q query.CountQuery, _ []float64) (float64, float64, error) {
	v, err := f.Count(ctx, q)
	return v, 1, err
}
func (f *fakeAnswerer) AnswerWorkload(ctx context.Context, qs []query.CountQuery, _ int) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, _ := f.Count(ctx, q)
		out[i] = v
	}
	return out, nil
}

// newFakeServer builds a Server with cfg's settings over the backend f, a
// release over the hospital schema.
func newFakeServer(t testing.TB, f Answerer, cfg Config) *Server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.install(&release{answer: f, computed: "computed", schema: dataset.Hospital().Schema, number: -1})
	return s
}

// TestCacheEviction drives more distinct queries than the cache holds and
// checks entries are evicted rather than accumulated, and that re-asking an
// evicted query recomputes.
func TestCacheEviction(t *testing.T) {
	f := &fakeAnswerer{}
	reg := obs.NewRegistry()
	var cfg Config
	cfg.CacheEntries = cacheShards // one entry per shard
	cfg.Metrics = reg
	s := newFakeServer(t, f, cfg)
	h := s.Handler()

	const distinct = 4 * cacheShards
	for lo := 0; lo < distinct; lo++ {
		var resp QueryResponse
		if code := post(t, h, "/v1/query", QueryRequest{
			Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage(fmt.Sprint(lo)), Hi: json.RawMessage(fmt.Sprint(lo))}},
		}, &resp); code != http.StatusOK {
			t.Fatalf("lo=%d: status %d", lo, code)
		}
	}
	if got := s.rel.Load().cache.len(); got > cacheShards {
		t.Fatalf("cache holds %d entries, cap is %d", got, cacheShards)
	}
	if reg.Counter("serve.cache.evictions").Value() == 0 {
		t.Fatal("no evictions recorded after overfilling the cache")
	}

	// Asking the distinct queries again cannot be all cache hits: most were
	// evicted, so the backend is called again.
	before := f.calls.Load()
	for lo := 0; lo < distinct; lo++ {
		post(t, h, "/v1/query", QueryRequest{
			Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage(fmt.Sprint(lo)), Hi: json.RawMessage(fmt.Sprint(lo))}},
		}, nil)
	}
	if f.calls.Load() == before {
		t.Fatal("evicted queries were answered without recomputation")
	}
}

func intp(v int) *int { return &v }

// TestSingleflightCoalesces fires N identical queries concurrently against a
// gated backend and requires exactly one backend call; the N-1 duplicates
// share the leader's computation.
func TestSingleflightCoalesces(t *testing.T) {
	f := &fakeAnswerer{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	var cfg Config
	cfg.Metrics = reg
	cfg.MaxInFlight = 64
	s := newFakeServer(t, f, cfg)
	h := s.Handler()

	const n = 16
	var wg sync.WaitGroup
	results := make([]QueryResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, h, "/v1/query", QueryRequest{
				Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage("3"), Hi: json.RawMessage("3")}},
			}, &results[i])
		}(i)
	}
	// Wait until all n requests have joined the one flight (leader inside
	// the gate, duplicates parked on its done channel), then release. The
	// join count is the gate condition — a plain cache-miss count would race
	// a fast leader against latecomers still on their way into the flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		calls, joined := s.rel.Load().flight.stats()
		if calls == 1 && joined == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flights with %d joined callers, want 1 with %d", calls, joined, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(f.gate)
	wg.Wait()

	if got := f.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times for %d identical concurrent queries", got, n)
	}
	var coalesced int
	for i := range results {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if results[i].Estimate != 3 {
			t.Fatalf("request %d: estimate %v", i, results[i].Estimate)
		}
		if results[i].Source == "coalesced" {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d of %d answers coalesced, want %d", coalesced, n, n-1)
	}
	if got := reg.Counter("serve.coalesced").Value(); got != n-1 {
		t.Fatalf("serve.coalesced = %d, want %d", got, n-1)
	}
}

// TestLimiterShedsWithRetryAfter saturates a MaxInFlight=1 server with a
// blocked request and checks the overflow is shed with 429 + Retry-After,
// while the admitted request still completes once unblocked.
func TestLimiterShedsWithRetryAfter(t *testing.T) {
	f := &fakeAnswerer{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	var cfg Config
	cfg.MaxInFlight = 1
	cfg.Metrics = reg
	s := newFakeServer(t, f, cfg)
	h := s.Handler()

	firstDone := make(chan int, 1)
	go func() {
		firstDone <- post(t, h, "/v1/query", QueryRequest{
			Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage("5"), Hi: json.RawMessage("5")}},
		}, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	// The slot is held; a distinct query must be shed, not queued.
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"where":[{"dim":0,"lo":7,"hi":7}]}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	if reg.Counter("serve.shed").Value() != 1 {
		t.Fatalf("serve.shed = %d", reg.Counter("serve.shed").Value())
	}

	close(f.gate)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted request finished with %d", code)
	}

	// With the slot free again, the previously shed query now succeeds.
	if code := post(t, h, "/v1/query", QueryRequest{
		Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage("7"), Hi: json.RawMessage("7")}},
	}, nil); code != http.StatusOK {
		t.Fatalf("post-drain request failed with %d", code)
	}
}

// TestTimeoutCutsOffSlowQueries pins the deadline path: a backend slower
// than RequestTimeout yields 504, and the timeout counter moves.
func TestTimeoutCutsOffSlowQueries(t *testing.T) {
	f := &fakeAnswerer{delay: 300 * time.Millisecond}
	reg := obs.NewRegistry()
	var cfg Config
	cfg.RequestTimeout = 20 * time.Millisecond
	cfg.Metrics = reg
	s := newFakeServer(t, f, cfg)

	var resp errorResponse
	if code := post(t, s.Handler(), "/v1/query", QueryRequest{
		Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage("1"), Hi: json.RawMessage("1")}},
	}, &resp); code != http.StatusGatewayTimeout {
		t.Fatalf("slow query answered %d, want 504", code)
	}
	if reg.Counter("serve.timeouts").Value() != 1 {
		t.Fatalf("serve.timeouts = %d", reg.Counter("serve.timeouts").Value())
	}

	// The abandoned computation still completes in the background and fills
	// the cache: once it lands, the same query is a hit.
	deadline := time.Now().Add(5 * time.Second)
	for s.rel.Load().cache.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned computation never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ok QueryResponse
	if code := post(t, s.Handler(), "/v1/query", QueryRequest{
		Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage("1"), Hi: json.RawMessage("1")}},
	}, &ok); code != http.StatusOK || ok.Source != "cache" {
		t.Fatalf("post-timeout repeat: code=%d source=%q", code, ok.Source)
	}
}

// codeGated is a fakeAnswerer whose COUNT of a query whose dim-0 range
// starts at a gated code waits for that code's gate to close.
type codeGated struct {
	fakeAnswerer
	gates map[int32]chan struct{}
}

func (g *codeGated) Count(ctx context.Context, q query.CountQuery) (float64, error) {
	if gate := g.gates[q.QI[0].Lo]; gate != nil {
		g.calls.Add(1)
		<-gate
		return float64(q.QI[0].Lo), nil
	}
	return g.fakeAnswerer.Count(ctx, q)
}

// TestGracefulShutdownDrains starts a real listener, parks a request and a
// shard-stream frame on gates of their own, opens an idle shard stream,
// calls Shutdown, and requires (a) the idle stream to be closed at once,
// (b) the in-flight request, then the frame, to complete with 200, (c)
// Shutdown to return only after both did, with no request left admitted,
// and (d) new connections to be refused afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	httpGate, frameGate := make(chan struct{}), make(chan struct{})
	f := &codeGated{gates: map[int32]chan struct{}{4: httpGate, 3: frameGate}}
	s := newFakeServer(t, f, Config{})
	hs, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	type result struct {
		code int
		body string
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+hs.Addr+"/v1/query", "application/json",
			strings.NewReader(`{"where":[{"dim":0,"lo":4,"hi":4}]}`))
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inFlight <- result{code: resp.StatusCode, body: string(b)}
	}()

	sh, err := newCoordShard(0, "http://"+hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := sh.dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.conn.Close()
	schema := dataset.Hospital().Schema
	q := fullQuery(schema)
	q.QI[0] = query.Range{Lo: 3, Hi: 3}
	frame := appendShardQuery(requestFrame(frameQuery), schema, "count", q, nil)
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	frameDone := make(chan result, 1)
	go func() {
		status, reply, err := sh.call(context.Background(), frame)
		frameDone <- result{code: status, body: string(reply), err: err}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the request and the frame never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()

	idle.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.br.ReadByte(); err != io.EOF {
		t.Fatalf("reading an idle shard stream during Shutdown: %v, want EOF", err)
	}
	// Shutdown must wait for the parked request, then for the parked frame.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(httpGate)
	r := <-inFlight
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: code=%d err=%v", r.code, r.err)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(r.body), &resp); err != nil || resp.Estimate != 4 {
		t.Fatalf("drained answer corrupted: %q (%v)", r.body, err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a shard-stream frame was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(frameGate)
	r = <-frameDone
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight frame during shutdown: status=%d err=%v", r.code, r.err)
	}
	if est, _, _, _, err := decodeQueryReply([]byte(r.body)); err != nil || est != 3 {
		t.Fatalf("drained frame answer corrupted: %v (%v)", est, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := len(s.sem); n != 0 {
		t.Fatalf("%d requests still admitted after Shutdown", n)
	}
	if _, err := http.Get("http://" + hs.Addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestRequestValidation sweeps the 400 paths.
func TestRequestValidation(t *testing.T) {
	ix, _ := hospitalIndex(t)
	s := newTestServer(t, Config{Index: ix})
	h := s.Handler()

	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"unknown op", `{"op":"median"}`},
		{"unknown attr", `{"where":[{"attr":"Nope"}]}`},
		{"attr and dim", `{"where":[{"attr":"Age","dim":0}]}`},
		{"neither attr nor dim", `{"where":[{"lo":1}]}`},
		{"dim out of range", `{"where":[{"dim":99}]}`},
		{"inverted range", `{"where":[{"dim":0,"lo":5,"hi":2}]}`},
		{"code out of domain", `{"where":[{"dim":0,"lo":-3}]}`},
		{"bad bound type", `{"where":[{"dim":0,"lo":[1]}]}`},
		{"unknown label", `{"where":[{"dim":0,"lo":"xyzzy"}]}`},
		{"sensitive code out of domain", `{"sensitive":[99]}`},
		{"values on count", `{"op":"count","values":[1,2]}`},
		{"values wrong length", `{"op":"sum","values":[1]}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}

	// GET on a POST endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d", w.Code)
	}

	// Batch rejects non-count ops.
	if code := post(t, h, "/v1/batch", BatchRequest{Queries: []QueryRequest{{Op: "sum"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("batch with sum: status %d", code)
	}
}

// TestMetadataEndpoint checks /v1/metadata serves the release document plus
// the index's group count, and /healthz responds.
func TestMetadataEndpoint(t *testing.T) {
	ix, pub := hospitalIndex(t)
	meta, err := pub.Metadata(0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Index: ix, Meta: meta})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/metadata", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/metadata: status %d", w.Code)
	}
	var got MetadataResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.P != pub.P || got.K != pub.K || got.Algorithm != pub.Algorithm.String() {
		t.Fatalf("metadata drifted: %+v", got)
	}
	if got.Groups != ix.Groups() {
		t.Fatalf("groups = %d, want %d", got.Groups, ix.Groups())
	}
	if got.Guarantee == nil || got.Guarantee.Lambda != 0.1 {
		t.Fatalf("guarantee block missing: %+v", got.Guarantee)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", w.Code, w.Body.String())
	}
}
