package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pgpub/internal/query"
)

// codecPost posts a shard-codec body to h.
func codecPost(h http.Handler, path string, body []byte, apiKey string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", shardCodecType)
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestShardCodecAnswersLikeJSON pins the shard side of the codec: every op,
// and a batch, answered through the codec equals the JSON answer to the
// same query bit for bit, and a malformed codec body is a 400 with a JSON
// error, as a malformed JSON body is.
func TestShardCodecAnswersLikeJSON(t *testing.T) {
	ix, _ := hospitalIndex(t)
	h := newTestServer(t, Config{Index: ix}).Handler()
	schema := ix.Schema()
	q := fullQuery(schema)
	q.QI[0].Hi /= 2
	q.Sensitive = make([]bool, schema.SensitiveDomain())
	q.Sensitive[0], q.Sensitive[2] = true, true
	values := make([]float64, schema.SensitiveDomain())
	for i := range values {
		values[i] = 10 + float64(i)
	}
	for _, op := range []string{"count", "naive", "sum", "avg"} {
		for _, mask := range [][]bool{nil, q.Sensitive} {
			q := q
			q.Sensitive = mask
			var vs []float64
			if op == "sum" || op == "avg" {
				vs = values
			}
			req := wireQuery(op, q)
			req.Values = vs
			var want QueryResponse
			code := post(t, h, "/v1/query", req, &want)
			w := codecPost(h, "/v1/query", appendShardQuery(nil, schema, op, q, vs), "")
			if w.Code != code {
				t.Fatalf("%s (mask %v): codec HTTP %d %q, JSON HTTP %d", op, mask != nil, w.Code, w.Body.String(), code)
			}
			if code != http.StatusOK {
				continue // SUM/AVG take no mask
			}
			if ct := w.Header().Get("Content-Type"); ct != shardCodecType {
				t.Fatalf("%s: codec reply of type %q", op, ct)
			}
			est, sum, weight, parts, err := decodeQueryReply(w.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(est) != math.Float64bits(want.Estimate) || parts != (want.Sum != nil) {
				t.Fatalf("%s: codec (%v, parts %v), JSON (%v, %v)", op, est, parts, want.Estimate, want.Sum)
			}
			if parts && (math.Float64bits(sum) != math.Float64bits(*want.Sum) || math.Float64bits(weight) != math.Float64bits(*want.Weight)) {
				t.Fatalf("%s: codec pair (%v, %v), JSON (%v, %v)", op, sum, weight, *want.Sum, *want.Weight)
			}
		}
	}

	qs, err := query.Workload(schema, query.WorkloadConfig{Queries: 9, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.5, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	var breq BatchRequest
	for _, q := range qs {
		breq.Queries = append(breq.Queries, wireQuery("count", q))
	}
	var want BatchResponse
	if code := post(t, h, "/v1/batch", breq, &want); code != http.StatusOK {
		t.Fatalf("batch over JSON: HTTP %d", code)
	}
	w := codecPost(h, "/v1/batch", appendShardBatch(nil, schema, qs), "")
	got := make([]float64, len(qs))
	if err := addEstimates(got, w.Body.Bytes()); err != nil || w.Code != http.StatusOK {
		t.Fatalf("batch over the codec: HTTP %d: %v", w.Code, err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want.Estimates[i]) {
			t.Fatalf("batch query %d: codec %v, JSON %v", i, got[i], want.Estimates[i])
		}
	}

	for name, tc := range map[string]struct {
		path string
		body []byte
	}{
		"truncated":      {"/v1/query", []byte{0, 1, 0}},
		"trailing bytes": {"/v1/query", append(appendShardQuery(nil, schema, "count", q, nil), 7)},
		"count values":   {"/v1/query", appendShardQuery(nil, schema, "count", q, values)},
		"batch of sums":  {"/v1/batch", append([]byte{1}, appendShardQuery(nil, schema, "sum", q, nil)...)},
		"short batch":    {"/v1/batch", append([]byte{2}, appendShardQuery(nil, schema, "count", q, nil)...)},
	} {
		w := codecPost(h, tc.path, tc.body, "")
		if w.Code != http.StatusBadRequest || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: HTTP %d (%s), want a JSON 400", name, w.Code, w.Header().Get("Content-Type"))
		}
	}
}

// TestShardCodecAllocs budgets the coordinator's side of the codec: encoding
// a query and decoding the replies into reused buffers allocate nothing.
func TestShardCodecAllocs(t *testing.T) {
	ix, _ := hospitalIndex(t)
	schema := ix.Schema()
	q := fullQuery(schema)
	q.QI[1].Lo = 1
	q.Sensitive = make([]bool, schema.SensitiveDomain())
	q.Sensitive[1] = true
	values := make([]float64, schema.SensitiveDomain())
	qs := []query.CountQuery{q, q, q}
	reply := appendQueryReply(nil, answerVal{est: 1, sum: 2, weight: 3, parts: true})
	batch := appendEstimates(nil, []float64{1, 2, 3})
	buf := make([]byte, 0, 256)
	out := make([]float64, len(qs))
	for name, fn := range map[string]func(){
		"encode query": func() { buf = appendShardQuery(buf[:0], schema, "sum", q, values) },
		"encode batch": func() { buf = appendShardBatch(buf[:0], schema, qs) },
		"decode reply": func() {
			if _, _, _, _, err := decodeQueryReply(reply); err != nil {
				t.Fatal(err)
			}
		},
		"decode batch reply": func() {
			if err := addEstimates(out, batch); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
}

// countingServer serves h on loopback and counts the connections it accepts.
// closeIdle makes it close every connection as soon as it goes idle.
func countingServer(t *testing.T, h http.Handler, closeIdle bool) (url string, conns *atomic.Int64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns = new(atomic.Int64)
	srv := &http.Server{Handler: h, ConnState: func(c net.Conn, st http.ConnState) {
		switch {
		case st == http.StateNew:
			conns.Add(1)
		case st == http.StateIdle && closeIdle:
			c.Close()
		}
	}}
	go srv.Serve(lis) //nolint:errcheck // Close ends it
	t.Cleanup(func() { srv.Close() })
	return "http://" + lis.Addr().String(), conns
}

// echoReply answers every call with a one-query codec reply.
var echoReply = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	writeShardReply(w, appendQueryReply(nil, answerVal{est: 7}))
})

// transportCall posts one codec call through hc and checks the reply.
func transportCall(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/query", bytes.NewReader([]byte{0, 0, 0, 0}))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if est, _, _, _, err := decodeQueryReply(b); err != nil || est != 7 {
		return &shardFailure{status: resp.StatusCode, msg: string(b)}
	}
	return nil
}

// TestShardTransportKeepsAlive: sequential calls share one connection.
func TestShardTransportKeepsAlive(t *testing.T) {
	url, conns := countingServer(t, echoReply, false)
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	for i := 0; i < 100; i++ {
		if err := transportCall(context.Background(), hc, url); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("100 sequential calls dialed %d connections, want 1", n)
	}
}

// TestShardTransportRedialsClosedConns: a server that closes every idle
// connection leaves a dead one in the pool after each call; the next call
// fails on it before any reply byte and is sent again on a new connection.
func TestShardTransportRedialsClosedConns(t *testing.T) {
	url, conns := countingServer(t, echoReply, true)
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	const calls = 20
	for i := 0; i < calls; i++ {
		if err := transportCall(context.Background(), hc, url); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != calls {
		t.Fatalf("%d calls dialed %d connections; the server closed each after one call", calls, n)
	}
}

// TestShardTransportCancel: cancelling a call the server never answers
// returns at once, and the connection it held is not pooled.
func TestShardTransportCancel(t *testing.T) {
	stalled := make(chan struct{})
	release := make(chan struct{})
	var n atomic.Int64
	url, _ := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 2 {
			close(stalled)
			<-release
		}
		echoReply(w, r)
	}), false)
	defer close(release)
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	if err := transportCall(context.Background(), hc, url); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		err := transportCall(ctx, hc, url)
		done <- result{err, time.Now()}
	}()
	<-stalled
	t0 := time.Now()
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("the cancelled call returned %v", r.err)
		}
		if el := r.at.Sub(t0); el > 50*time.Millisecond {
			t.Fatalf("a cancelled call returned after %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled call never returned")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for host, idle := range tr.idle {
		if len(idle) != 0 {
			t.Fatalf("%d connections to %s pooled after the cancelled call", len(idle), host)
		}
	}
}

// chunkedRecorder notes whether any reply came chunked.
type chunkedRecorder struct {
	rt      http.RoundTripper
	chunked atomic.Bool
}

func (c *chunkedRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil && len(resp.TransferEncoding) > 0 && resp.TransferEncoding[0] == "chunked" {
		c.chunked.Store(true)
	}
	return resp, err
}

// TestCoordinatorLargeBatch sends a 2,500-query batch through the
// coordinator: the shards' 20 kB codec replies go out chunked, and the
// merged answers still equal the in-process composition bit for bit.
func TestCoordinatorLargeBatch(t *testing.T) {
	rec := &chunkedRecorder{rt: &shardTransport{}}
	f := newCoordFixture(t, 1500, 2, func(cc *CoordConfig) { cc.Client = &http.Client{Transport: rec} })
	qs, err := query.Workload(f.group.Schema(), query.WorkloadConfig{
		Queries: 2500, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.5, Rng: rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.group.AnswerWorkload(qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var breq BatchRequest
	for _, q := range qs {
		breq.Queries = append(breq.Queries, wireQuery("count", q))
	}
	var resp BatchResponse
	if code := post(t, f.coord.Handler(), "/v1/batch", breq, &resp); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if !rec.chunked.Load() {
		t.Fatal("no shard reply came chunked")
	}
	for i := range want {
		if math.Float64bits(resp.Estimates[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: coordinator %v, group %v", i, resp.Estimates[i], want[i])
		}
	}
}

// TestDPServerRefusesShardCodec: the codec's replies carry exact answers and
// compose pairs, so a DP server refuses it with 400 before admission — no
// ε is charged.
func TestDPServerRefusesShardCodec(t *testing.T) {
	ix, _ := hospitalIndex(t)
	l := mustLedger(t, "alice 10 0.5")
	h := newTestServer(t, Config{Index: ix, DP: &DPConfig{Ledger: l, Seed: 1}}).Handler()
	q := fullQuery(ix.Schema())
	for path, body := range map[string][]byte{
		"/v1/query": appendShardQuery(nil, ix.Schema(), "sum", q, nil),
		"/v1/batch": appendShardBatch(nil, ix.Schema(), []query.CountQuery{q}),
	} {
		if w := codecPost(h, path, body, "alice"); w.Code != http.StatusBadRequest {
			t.Fatalf("%s in the shard codec at a DP server: HTTP %d %s", path, w.Code, w.Body.String())
		}
	}
	if spent := l.Key("alice").Spent(); spent != 0 {
		t.Fatalf("refused codec calls spent %v ε", spent)
	}
}
