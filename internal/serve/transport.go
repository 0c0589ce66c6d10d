package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// shardTransport is the coordinator's default RoundTripper: plain HTTP/1.1
// keep-alive over a per-host pool of idle connections, with the whole round
// trip on the caller's goroutine. http.Transport hands every call to a
// connection's read and write goroutines and back; a shard call is a small
// request and a small reply on loopback or a LAN, where those handoffs cost
// more than the call. It serves http:// URLs only, and it is not a general
// client: no proxies, TLS, compression, HTTP/2 or 1xx handling.
// The zero value is ready to use; every dial is bounded by its request's
// context.
type shardTransport struct {
	dialer net.Dialer
	mu     sync.Mutex
	idle   map[string][]*shardConn
}

// shardIdlePerHost caps the idle connections kept per host, as
// http.Transport.MaxIdleConnsPerHost does.
const shardIdlePerHost = 64

// shardConn is one connection with its buffers. read records whether any
// response byte has arrived in the current round trip.
type shardConn struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	host string
	read bool
}

func (c *shardConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.read = true
	}
	return n, err
}

// RoundTrip sends req on an idle connection to its host, or a new one. A
// reused connection the server has closed meanwhile fails before any reply
// byte arrives; the request is then sent once more, on a newly dialed
// connection. That is safe because shard calls are read-only, and a request
// whose body cannot be replayed is not retried.
func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("serve: shard transport: unsupported scheme %q", req.URL.Scheme)
	}
	host := req.URL.Host
	if req.URL.Port() == "" {
		host = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	c := t.get(host)
	for {
		reused := c != nil
		if !reused {
			conn, err := t.dialer.DialContext(ctx, "tcp", host)
			if err != nil {
				closeBody(req)
				return nil, err
			}
			c = &shardConn{Conn: conn, host: host}
			c.br, c.bw = bufio.NewReader(c), bufio.NewWriter(c)
		}
		resp, err := t.roundTrip(ctx, c, req)
		if err == nil || !reused || c.read || ctx.Err() != nil {
			return resp, err
		}
		if req.Body != nil && req.Body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			req = req.Clone(ctx)
			req.Body = body
		}
		c = nil
	}
}

// roundTrip writes req on c and reads the reply head. Cancelling ctx moves
// c's deadline into the past, which fails whatever I/O is blocked on it;
// the reply body keeps the cancellation armed until it is read out.
func (t *shardTransport) roundTrip(ctx context.Context, c *shardConn, req *http.Request) (*http.Response, error) {
	c.read = false
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) }) //nolint:errcheck // a failed deadline leaves the I/O to fail on its own
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	if err != nil {
		stop()
		c.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	resp.Body = &shardBody{rc: resp.Body, c: c, t: t, stop: stop, keep: !resp.Close && !req.Close}
	return resp, nil
}

// shardBody hands its connection back to the pool once the body has been
// read to EOF on a connection that stays open, and closes it otherwise.
type shardBody struct {
	rc   io.ReadCloser
	c    *shardConn
	t    *shardTransport
	stop func() bool
	keep bool
	done bool
}

func (b *shardBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	n, err := b.rc.Read(p)
	if err != nil {
		b.release(err == io.EOF)
	}
	return n, err
}

func (b *shardBody) Close() error {
	b.release(false)
	return nil
}

// release gives up the connection once: to the pool when reuse is true, the
// connection may be kept and the cancellation never fired (so no deadline
// is left on it), to Close otherwise.
func (b *shardBody) release(reuse bool) {
	if b.done {
		return
	}
	b.done = true
	if b.stop() && reuse && b.keep {
		b.t.put(b.c)
		return
	}
	b.c.Close()
}

// get pops the most recently idled connection to host, or returns nil.
func (t *shardTransport) get(host string) *shardConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[host]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	idle[len(idle)-1] = nil
	t.idle[host] = idle[:len(idle)-1]
	return c
}

func (t *shardTransport) put(c *shardConn) {
	t.mu.Lock()
	if t.idle == nil {
		t.idle = map[string][]*shardConn{}
	}
	if idle := t.idle[c.host]; len(idle) < shardIdlePerHost {
		t.idle[c.host] = append(idle, c)
		c = nil
	}
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// CloseIdleConnections closes every pooled connection; http.Client's method
// of the same name calls it.
func (t *shardTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
