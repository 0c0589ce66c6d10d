package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// This file is the shard stream: the one wire between a coordinator and its
// shard servers. The coordinator opens it with an HTTP/1.1 upgrade on the
// shard's own API mux,
//
//	GET /v1/shard/stream HTTP/1.1
//	Connection: Upgrade
//	Upgrade: pg-shard/1
//
// and the shard answers 101 Switching Protocols and hijacks the connection.
// From then on the connection carries frames, one request and its reply at
// a time, little-endian:
//
//	request  kind (1 byte: frameQuery or frameBatch), body length (u32),
//	         body: the shard codec's query or batch (shardcodec.go)
//	reply    status (u16, an HTTP status), body length (u32), body: the
//	         codec reply on 200, the JSON errorResponse otherwise
//
// Each frame runs through the handler pipeline a JSON request takes —
// admission, deadline, cache, singleflight, metrics — on the connection's
// own goroutine. JSON stays the external API: the stream is reached only by
// a coordinator, and a DP server refuses the upgrade.

const (
	streamPath     = "/v1/shard/stream"
	streamProtocol = "pg-shard/1"

	frameQuery byte = 0
	frameBatch byte = 1

	requestHead = 5 // kind + u32 length
	replyHead   = 6 // u16 status + u32 length

	// frameStep is the most a frame buffer grows by before the bytes to
	// fill it have arrived.
	frameStep = 4 << 10
)

// requestFrame starts a request frame of kind: its head, for the caller to
// append the codec body to and sealFrame to complete.
func requestFrame(kind byte) []byte {
	return append(make([]byte, 0, 64), kind, 0, 0, 0, 0)
}

// sealFrame fills in the body length of a frame from requestFrame.
func sealFrame(frame []byte) error {
	n := len(frame) - requestHead
	if n > maxBodyBytes {
		return fmt.Errorf("a %d-byte shard request is over the %d-byte frame limit", n, maxBodyBytes)
	}
	binary.LittleEndian.PutUint32(frame[1:], uint32(n))
	return nil
}

// frameFunc answers one request frame into w. r is the upgrade request: its
// context lives as long as the stream.
type frameFunc func(w http.ResponseWriter, r *http.Request, kind byte, body []byte)

// handleStream serves /v1/shard/stream. A DP server refuses it with 400
// before anything is charged: the codec's replies carry exact answers and
// compose pairs, which must never leave a DP server.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.dp != nil {
		s.fail(w, errors.New("this server is in DP mode: it answers JSON only, and shard calls go to exact servers"))
		return
	}
	serveStream(w, r, s.serveFrame)
}

// serveFrame answers one frame of a shard stream as a JSON request is answered.
func (s *Server) serveFrame(w http.ResponseWriter, r *http.Request, kind byte, body []byte) {
	rq := s.request(w, r)
	switch kind {
	case frameQuery:
		s.met.reqQuery.Inc()
		op, q, values, err := decodeShardQuery(rq.rel.schema, body)
		if err == nil {
			err = rq.setQuery(op, q, values, nil)
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		rq.answerQuery()
	case frameBatch:
		s.met.reqBatch.Inc()
		var err error
		if rq.qs, err = decodeShardBatch(rq.rel.schema, body); err != nil {
			s.fail(w, err)
			return
		}
		rq.answerBatch()
	default:
		s.fail(w, fmt.Errorf("unknown frame kind %d", kind))
	}
}

// serveStream upgrades r's connection to a shard stream and answers its
// frames through serve until the peer closes it, a frame breaks the
// framing, or the server shuts the stream down. A request that does not
// ask for the upgrade gets 426.
func serveStream(w http.ResponseWriter, r *http.Request, serve frameFunc) {
	if r.Method != http.MethodGet || !hasToken(r.Header["Connection"], "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) {
		w.Header().Set("Upgrade", streamProtocol)
		w.Header().Set("Connection", "Upgrade")
		writeJSON(w, http.StatusUpgradeRequired, errorResponse{Error: "GET with Connection: Upgrade and Upgrade: " + streamProtocol + " required"})
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("shard stream: %v", err)})
		return
	}
	set, ok := r.Context().Value(streamSetKey{}).(*streamSet)
	if !ok {
		set = newStreamSet() // served by another http.Server: nothing shuts it down
	}
	st := &shardStream{conn: conn, br: brw.Reader, out: conn}
	if !set.add(st) {
		conn.Close()
		return
	}
	defer func() {
		conn.Close()
		set.remove(st)
	}()
	// The server may have left a read deadline from the request head.
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+streamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	st.run(r, set, serve)
}

// hasToken reports whether a comma-separated header lists token.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// shardStream is a shard server's end of one stream. busy is guarded by
// its streamSet's mutex.
type shardStream struct {
	conn net.Conn // nil when the stream is not a network connection
	br   *bufio.Reader
	out  io.Writer
	busy bool
	body []byte // the request frame's body, reused
	w    frameWriter
}

// run answers frames until the input ends or breaks the framing. A length
// claim over maxBodyBytes ends the stream before anything is allocated for
// it, and the body buffer grows only as the bytes arrive.
func (st *shardStream) run(r *http.Request, set *streamSet, serve frameFunc) {
	var head [requestHead]byte
	for {
		// Idle until a frame starts arriving.
		if _, err := st.br.Peek(1); err != nil || !set.begin(st) {
			return
		}
		if _, err := io.ReadFull(st.br, head[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(head[1:])
		if n > maxBodyBytes {
			return
		}
		var err error
		if st.body, err = readFrameBody(st.br, st.body[:0], int(n)); err != nil {
			return
		}
		st.w.reset()
		serve(&st.w, r, head[0], st.body)
		if _, err := st.out.Write(st.w.frame()); err != nil || !set.end(st) {
			return
		}
	}
}

// readFrameBody appends an n-byte frame body from br to buf. buf grows by
// at most frameStep, or by what it already holds, ahead of the bytes that
// fill it, so a length claim the peer does not back with bytes allocates
// little.
func readFrameBody(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	want := len(buf) + n
	for len(buf) < want {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(want, len(buf)+max(len(buf), frameStep)))
			copy(grown, buf)
			buf = grown
		}
		m, err := br.Read(buf[len(buf):min(want, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frameWriter is the ResponseWriter a frame is answered into: the reply
// frame, whose head frame fills in once the handler has written the body
// (a codec answer, which request.reply appends to buf, or a JSON error).
type frameWriter struct {
	header http.Header
	status int
	buf    []byte
}

func (w *frameWriter) reset() {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.status = 0
	w.buf = append(w.buf[:0], make([]byte, replyHead)...)
}

func (w *frameWriter) Header() http.Header { return w.header }

func (w *frameWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *frameWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.buf = append(w.buf, b...)
	return len(b), nil
}

// frame returns the complete reply frame.
func (w *frameWriter) frame() []byte {
	w.WriteHeader(http.StatusOK)
	binary.LittleEndian.PutUint16(w.buf, uint16(w.status))
	binary.LittleEndian.PutUint32(w.buf[2:], uint32(len(w.buf)-replyHead))
	return w.buf
}

// ---------------------------------------------------------------------------
// Stream lifetime

// streamSetKey is the request-context key under which serveHandler's
// http.Server hands its streamSet to the stream handler.
type streamSetKey struct{}

// streamSet tracks the shard streams one HTTPServer has upgraded, so
// Shutdown can drain them and Close abort them. A Handler served by any
// other http.Server gives each stream a set of its own, which nothing shuts
// down: the stream ends when the peer closes it.
type streamSet struct {
	mu      sync.Mutex
	streams map[*shardStream]struct{}
	closing bool
	drained chan struct{} // closed once closing and no stream is left
}

func newStreamSet() *streamSet {
	return &streamSet{streams: map[*shardStream]struct{}{}, drained: make(chan struct{})}
}

// add registers a new stream; false once the set is closing.
func (s *streamSet) add(st *shardStream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.streams[st] = struct{}{}
	return true
}

func (s *streamSet) remove(st *shardStream) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.streams, st)
	s.checkDrained()
}

// begin marks st busy as a frame starts arriving; false once the set is
// closing, when the stream ends instead.
func (s *streamSet) begin(st *shardStream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.busy = !s.closing
	return st.busy
}

// end marks st idle after its reply; false once the set is closing.
func (s *streamSet) end(st *shardStream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.busy = false
	return !s.closing
}

// closeIdle starts a shutdown: the set takes no new stream, every idle one
// is closed now, and a busy one ends after its reply.
func (s *streamSet) closeIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	for st := range s.streams {
		if !st.busy {
			st.conn.Close()
		}
	}
	s.checkDrained()
}

// wait waits, up to ctx, for the streams of a closing set to end.
func (s *streamSet) wait(ctx context.Context) error {
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close closes every stream at once, busy or not.
func (s *streamSet) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	for st := range s.streams {
		st.conn.Close()
	}
	s.checkDrained()
}

// checkDrained closes drained once the set is closing and empty. s.mu must
// be held.
func (s *streamSet) checkDrained() {
	if s.closing && len(s.streams) == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
}

// ---------------------------------------------------------------------------
// The coordinator's end

// streamIdleMax caps the idle streams a coordinator keeps per shard, as
// http.Transport.MaxIdleConnsPerHost does for connections.
const streamIdleMax = 64

// clientStream is a coordinator's end of one shard stream.
type clientStream struct {
	conn net.Conn
	br   *bufio.Reader
}

// expired is the deadline a cancelled call sets on its stream: already past,
// so whatever I/O is blocked on the stream fails at once.
var expired = time.Unix(1, 0)

// call sends one request frame to the shard on the caller's goroutine and
// returns the reply's status and body. It takes the most recently idled
// stream or opens a new one. A reused stream that fails before any reply
// byte — the shard closed it while it sat idle — is replaced by a new one,
// once; that is safe because shard calls are read-only. Cancelling ctx
// moves the stream's deadline into the past, which fails whatever I/O is
// blocked on it; a stream is pooled again only after a whole exchange the
// cancellation never touched.
func (sh *coordShard) call(ctx context.Context, frame []byte) (status int, body []byte, err error) {
	st := sh.get()
	for {
		reused := st != nil
		if !reused {
			if st, err = sh.dial(ctx); err != nil {
				return 0, nil, err
			}
		}
		conn := st.conn
		stop := context.AfterFunc(ctx, func() { conn.SetDeadline(expired) }) //nolint:errcheck // a failed deadline leaves the I/O to fail on its own
		var got bool
		status, body, got, err = st.exchange(frame)
		if stop() && err == nil {
			sh.put(st)
			return status, body, nil
		}
		st.conn.Close()
		switch {
		case err == nil:
			return status, body, nil // cancelled after a whole reply
		case ctx.Err() != nil:
			return 0, nil, ctx.Err()
		case !reused || got:
			return 0, nil, err
		}
		st = nil
	}
}

// exchange writes frame and reads the reply; got reports whether any reply
// byte arrived.
func (st *clientStream) exchange(frame []byte) (status int, body []byte, got bool, err error) {
	if _, err = st.conn.Write(frame); err != nil {
		return 0, nil, false, err
	}
	var head [replyHead]byte
	n, err := io.ReadFull(st.br, head[:])
	if err != nil {
		return 0, nil, n > 0, err
	}
	size := binary.LittleEndian.Uint32(head[2:])
	if size > maxBodyBytes {
		return 0, nil, true, fmt.Errorf("a %d-byte reply frame", size)
	}
	body, err = readFrameBody(st.br, nil, int(size))
	return int(binary.LittleEndian.Uint16(head[:])), body, true, err
}

// dial opens a stream to the shard: a connection with its own dialer, then
// the upgrade, both bounded by ctx.
func (sh *coordShard) dial(ctx context.Context) (*clientStream, error) {
	conn, err := sh.dialer.DialContext(ctx, "tcp", sh.addr)
	if err != nil {
		return nil, err
	}
	st := &clientStream{conn: conn, br: bufio.NewReader(conn)}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(expired) }) //nolint:errcheck // as in call
	err = st.upgrade(sh.host, sh.path)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return st, nil
}

// upgrade asks the shard to switch the connection to the stream.
func (st *clientStream) upgrade(host, path string) error {
	if _, err := io.WriteString(st.conn, "GET "+path+" HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+streamProtocol+"\r\n\r\n"); err != nil {
		return err
	}
	resp, err := http.ReadResponse(st.br, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		var er errorResponse
		msg := strings.TrimSpace(string(b))
		if json.Unmarshal(b, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return fmt.Errorf("shard stream refused: HTTP %d: %s", resp.StatusCode, msg)
	}
	if !strings.EqualFold(resp.Header.Get("Upgrade"), streamProtocol) {
		return fmt.Errorf("shard stream: upgraded to %q, want %q", resp.Header.Get("Upgrade"), streamProtocol)
	}
	return nil
}

// get pops the most recently idled stream, or returns nil.
func (sh *coordShard) get() *clientStream {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.idle)
	if n == 0 {
		return nil
	}
	st := sh.idle[n-1]
	sh.idle[n-1] = nil
	sh.idle = sh.idle[:n-1]
	return st
}

func (sh *coordShard) put(st *clientStream) {
	sh.mu.Lock()
	if len(sh.idle) < streamIdleMax {
		sh.idle = append(sh.idle, st)
		st = nil
	}
	sh.mu.Unlock()
	if st != nil {
		st.conn.Close()
	}
}
