package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgpub/internal/query"
)

// echoFrame answers every frame with a one-query codec reply.
func echoFrame(w http.ResponseWriter, _ *http.Request, _ byte, _ []byte) {
	w.Write(appendQueryReply(nil, QueryResponse{Estimate: 7}))
}

// streamServer serves a shard stream answered by serve on loopback. It
// counts the connections it accepts and keeps the upgraded ones, so a test
// can close them as a shard that drops idle streams would.
type streamServer struct {
	url      string
	conns    atomic.Int64
	mu       sync.Mutex
	upgraded []net.Conn
}

func newStreamServer(t *testing.T, serve frameFunc) *streamServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := &streamServer{url: "http://" + lis.Addr().String()}
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serveStream(w, r, serve) }),
		ConnState: func(c net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				ss.conns.Add(1)
			case http.StateHijacked:
				ss.mu.Lock()
				ss.upgraded = append(ss.upgraded, c)
				ss.mu.Unlock()
			}
		},
	}
	go srv.Serve(lis) //nolint:errcheck // Close ends it
	t.Cleanup(func() {
		srv.Close()
		ss.closeStreams()
	})
	return ss
}

// closeStreams closes the server's end of every stream it has upgraded.
func (ss *streamServer) closeStreams() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, c := range ss.upgraded {
		c.Close()
	}
	ss.upgraded = nil
}

// shard returns a coordinator's view of the server.
func (ss *streamServer) shard(t *testing.T) *coordShard {
	t.Helper()
	sh, err := newCoordShard(0, ss.url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for st := sh.get(); st != nil; st = sh.get() {
			st.conn.Close()
		}
	})
	return sh
}

// echoCall sends one query frame and checks the echoed reply.
func echoCall(ctx context.Context, sh *coordShard) error {
	frame := append(requestFrame(frameQuery), 0, 0, 0, 0)
	if err := sealFrame(frame); err != nil {
		return err
	}
	status, reply, err := sh.call(ctx, frame)
	if err != nil {
		return err
	}
	if est, _, _, _, err := decodeQueryReply(reply); err != nil || est != 7 || status != http.StatusOK {
		return &shardFailure{status: status, msg: string(reply)}
	}
	return nil
}

// TestShardStreamKeepsAlive: sequential calls share one stream, dialed once.
func TestShardStreamKeepsAlive(t *testing.T) {
	ss := newStreamServer(t, echoFrame)
	sh := ss.shard(t)
	for i := 0; i < 100; i++ {
		if err := echoCall(context.Background(), sh); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := ss.conns.Load(); n != 1 {
		t.Fatalf("100 sequential calls dialed %d connections, want 1", n)
	}
}

// TestShardStreamRedialsClosedStreams: a shard that closes every stream
// once it is idle leaves a dead one in the pool after each call; the next
// call fails on it before any reply byte and is sent again on a new stream.
func TestShardStreamRedialsClosedStreams(t *testing.T) {
	ss := newStreamServer(t, echoFrame)
	sh := ss.shard(t)
	const calls = 20
	for i := 0; i < calls; i++ {
		if err := echoCall(context.Background(), sh); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		ss.closeStreams()
	}
	if n := ss.conns.Load(); n != calls {
		t.Fatalf("%d calls dialed %d connections; the shard closed each stream after one call", calls, n)
	}
}

// TestShardStreamCancel: cancelling a call the shard never answers returns
// at once, and the stream it held is not pooled.
func TestShardStreamCancel(t *testing.T) {
	stalled := make(chan struct{})
	release := make(chan struct{})
	var n atomic.Int64
	ss := newStreamServer(t, func(w http.ResponseWriter, r *http.Request, kind byte, body []byte) {
		if n.Add(1) == 2 {
			close(stalled)
			<-release
		}
		echoFrame(w, r, kind, body)
	})
	defer close(release)
	sh := ss.shard(t)
	if err := echoCall(context.Background(), sh); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		err := echoCall(ctx, sh)
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
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.idle) != 0 {
		t.Fatalf("%d streams pooled after the cancelled call", len(sh.idle))
	}
}

// TestCoordinatorLargeBatch sends a 2,500-query batch through the
// coordinator: each shard's 20 kB reply frame spans many reads of the
// stream, and the merged answers still equal the in-process composition bit
// for bit.
func TestCoordinatorLargeBatch(t *testing.T) {
	f := newCoordFixture(t, 1500, 2, nil)
	qs, err := query.Workload(f.group.Schema(), query.WorkloadConfig{
		Queries: 2500, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.5, Rng: rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.group.AnswerWorkload(qs)
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
	for i := range want {
		if math.Float64bits(resp.Estimates[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: coordinator %v, group %v", i, resp.Estimates[i], want[i])
		}
	}
}

// upgradeRequest is the request a coordinator opens a shard stream with.
func upgradeRequest() *http.Request {
	req := httptest.NewRequest(http.MethodGet, streamPath, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProtocol)
	return req
}

// TestDPServerRefusesShardCodec: the codec's replies carry exact answers and
// compose pairs, so a DP server refuses the shard stream that carries them
// with 400 before admission — no ε is charged, even to a valid key — and a
// coordinator's call to it fails.
func TestDPServerRefusesShardCodec(t *testing.T) {
	ix, _ := hospitalIndex(t)
	l := mustLedger(t, "alice 10 0.5")
	h := newTestServer(t, Config{Index: ix, DP: &DPConfig{Ledger: l, Seed: 1}}).Handler()
	req := upgradeRequest()
	req.Header.Set("X-API-Key", "alice")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("shard stream upgrade at a DP server: HTTP %d %s", w.Code, w.Body.String())
	}

	sh := streamShard(t, h)
	frame := appendShardQuery(requestFrame(frameQuery), ix.Schema(), "sum", fullQuery(ix.Schema()), nil)
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.call(context.Background(), frame); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("a shard call to a DP server: %v", err)
	}
	if spent := l.Key("alice").Spent(); spent != 0 {
		t.Fatalf("refused shard streams spent %v ε", spent)
	}
}

// TestShardStreamRequiresUpgrade: the stream endpoint answers a request that
// does not ask for the upgrade with 426, naming the protocol.
func TestShardStreamRequiresUpgrade(t *testing.T) {
	ix, _ := hospitalIndex(t)
	h := newTestServer(t, Config{Index: ix}).Handler()
	for name, req := range map[string]*http.Request{
		"no upgrade":    httptest.NewRequest(http.MethodGet, streamPath, nil),
		"POST":          func() *http.Request { r := upgradeRequest(); r.Method = http.MethodPost; return r }(),
		"other upgrade": func() *http.Request { r := upgradeRequest(); r.Header.Set("Upgrade", "websocket"); return r }(),
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusUpgradeRequired || w.Header().Get("Upgrade") != streamProtocol {
			t.Errorf("%s: HTTP %d, Upgrade %q", name, w.Code, w.Header().Get("Upgrade"))
		}
	}
}

// TestBodyLimit: a JSON body declared over maxBodyBytes is a 413 before
// any of it is read, and a frame whose length claim is over it closes the
// stream without a reply.
func TestBodyLimit(t *testing.T) {
	ix, _ := hospitalIndex(t)
	h := newTestServer(t, Config{Index: ix}).Handler()
	for _, path := range []string{"/v1/query", "/v1/batch"} {
		body := &countingReader{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = maxBodyBytes + 1
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var er errorResponse
		if w.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(w.Body.Bytes(), &er) != nil {
			t.Fatalf("%s with a body over the limit: HTTP %d %q", path, w.Code, w.Body.String())
		}
		if body.n != 0 {
			t.Fatalf("%s: %d bytes of a body over the limit read", path, body.n)
		}
	}

	sh := streamShard(t, h)
	st, err := sh.dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.conn.Close()
	head := []byte{frameQuery, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(head[1:], maxBodyBytes+1)
	if _, err := st.conn.Write(head); err != nil {
		t.Fatal(err)
	}
	st.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if b, err := io.ReadAll(st.br); err != nil || len(b) != 0 {
		t.Fatalf("a frame over the limit: read %q (%v), want the stream closed", b, err)
	}
}

// countingReader is an endless body of spaces that counts what is read.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	r.n += len(p)
	return len(p), nil
}

// FuzzShardStream feeds arbitrary bytes to a shard stream after the
// upgrade: the frame loop never panics, never grows its frame buffer past
// twice the bytes received plus one growth step, and answers every complete
// frame with one well-formed reply frame — a codec reply of the right size
// on 200, a JSON error otherwise.
func FuzzShardStream(f *testing.F) {
	ix, _ := hospitalIndex(f)
	s, err := New(Config{Index: ix})
	if err != nil {
		f.Fatal(err)
	}
	schema := ix.Schema()
	q := fullQuery(schema)
	q.QI[0] = query.Range{Lo: 1, Hi: 3}
	frame := func(kind byte, body []byte) []byte {
		b := append(requestFrame(kind), body...)
		if err := sealFrame(b); err != nil {
			f.Fatal(err)
		}
		return b
	}
	one := frame(frameQuery, appendShardQuery(nil, schema, "count", q, nil))
	batch := frame(frameBatch, appendShardBatch(nil, schema, []query.CountQuery{q, q}))
	for _, seed := range [][]byte{
		one,
		batch,
		append(append([]byte{}, one...), batch...),
		frame(frameQuery, appendShardQuery(nil, schema, "sum", q, make([]float64, schema.SensitiveDomain()))),
		frame(frameQuery, []byte{0, 1}),
		frame(9, nil),
		one[:3],
		{frameQuery, 0xff, 0xff, 0xff, 0x03, 0},
		{frameBatch, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	req := httptest.NewRequest(http.MethodGet, streamPath, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		st := &shardStream{br: bufio.NewReader(bytes.NewReader(data)), out: &out}
		st.run(req, newStreamSet(), s.serveFrame)
		if c := cap(st.body); c > 2*len(data)+frameStep {
			t.Fatalf("a frame buffer of %d bytes after %d bytes received", c, len(data))
		}
		in, replies := data, out.Bytes()
		for len(in) >= requestHead {
			n := binary.LittleEndian.Uint32(in[1:])
			if uint64(n) > uint64(len(in)-requestHead) {
				break // incomplete: the stream ends without a reply
			}
			kind, body := in[0], in[requestHead:requestHead+int(n)]
			in = in[requestHead+int(n):]
			if len(replies) < replyHead {
				t.Fatalf("no reply to a complete frame of kind %d", kind)
			}
			status := int(binary.LittleEndian.Uint16(replies))
			size := binary.LittleEndian.Uint32(replies[2:])
			if uint64(size) > uint64(len(replies)-replyHead) {
				t.Fatalf("a reply frame claims %d bytes, %d follow", size, len(replies)-replyHead)
			}
			reply := replies[replyHead : replyHead+int(size)]
			replies = replies[replyHead+int(size):]
			switch {
			case status == http.StatusOK && kind == frameQuery:
				if _, _, _, _, err := decodeQueryReply(reply); err != nil {
					t.Fatalf("query reply: %v", err)
				}
			case status == http.StatusOK && kind == frameBatch:
				count, _ := binary.Uvarint(body)
				if uint64(len(reply)) != 8*count {
					t.Fatalf("a %d-byte reply to a batch of %d", len(reply), count)
				}
			case status == http.StatusOK:
				t.Fatalf("frame kind %d answered 200", kind)
			default:
				var er errorResponse
				if status < 400 || status > 599 || json.Unmarshal(reply, &er) != nil || er.Error == "" {
					t.Fatalf("status %d with reply %q", status, reply)
				}
			}
		}
		if len(replies) != 0 {
			t.Fatalf("%d reply bytes past the last complete frame", len(replies))
		}
	})
}
