package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Tracing, from outside the program: the client stamps X-Request-Id and the
// span it is sending from; middleware around every handler records the
// handler span and puts the request's span into the context; the
// coordinator fans out with that context, so the RoundTripper on its client
// records each shard call, hedges included, and forwards the ID. Index time
// is measured afterwards by replaying each computed answer against the same
// index and attached as a child of the handler span that computed it.

const (
	requestIDHeader = "X-Request-Id"
	parentHeader    = "X-Parent-Span-Id"
)

// span is one timed interval of a traced request.
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	node int    // handler spans: 0 the front server, s+1 shard s
	body []byte // handler spans: the head of the response body
}

// Client span IDs derive from the request ID; server-side spans draw theirs
// from the tracer's counter, which starts above every client ID.
const (
	spanRoot = iota + 1
	spanWait
	spanHTTP
	spanCodec
)

func clientSpanID(trace uint64, kind int) uint64 { return trace<<3 | uint64(kind) }

// tracer keeps the server-side spans of a run in memory.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{}
	t.ids.Store(1 << 48)
	return t
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh record.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type spanKey struct{}

// spanRef is what the middleware leaves in the request context.
type spanRef struct{ trace, span uint64 }

// wrap records a span named name around every traced request h serves.
// Untraced requests (no X-Request-Id) pass straight through.
func (t *tracer) wrap(name string, node int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 16, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 16, 64)
		sp := span{Trace: id, ID: t.ids.Add(1), Parent: parent, Name: name, node: node, Start: clock()}
		cw := &captureWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id, sp.ID})))
		sp.End = clock()
		sp.body = cw.head
		t.add(sp)
	})
}

// captureWriter keeps the head of the response body, enough to read the
// answer's source after the run.
type captureWriter struct {
	http.ResponseWriter
	head []byte
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if room := 256 - len(c.head); room > 0 {
		c.head = append(c.head, b[:min(room, len(b))]...)
	}
	return c.ResponseWriter.Write(b)
}

// transport records a shard-call span around every request the coordinator
// sends on behalf of a traced request, and forwards the request ID.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	sp := span{Trace: ref.trace, ID: tt.t.ids.Add(1), Parent: ref.span, Name: "shard.call", Start: clock()}
	out := req.Clone(req.Context())
	out.Header.Set(requestIDHeader, strconv.FormatUint(ref.trace, 16))
	out.Header.Set(parentHeader, strconv.FormatUint(sp.ID, 16))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.End = clock()
		tt.t.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

// spanBody ends the shard-call span when the coordinator closes the body,
// after it has read the answer.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = clock()
		b.t.add(b.sp)
	})
	return err
}

// source reads the answer source ("computed", "cache", ...) from the head of
// a handler span's response body.
func (s *span) source() string {
	var v struct {
		Source string `json:"source"`
	}
	if json.Unmarshal(s.body, &v) != nil {
		return ""
	}
	return v.Source
}

// replayer times one computed answer again, in isolation, against the index
// that computed it; ok is false when the span cannot be replayed.
type replayer func(sp *span, e *exchange) (ns int64, ok bool)

// breakdown is the per-layer result of one traced phase.
type breakdown struct {
	requests int
	layers   map[string]float64 // mean critical-path ns per request, by layer
	meanNS   float64            // mean root span (due to decoded)
	fanout   float64            // share of critical-path time below shard calls
	spans    []span
}

// layerOf maps a span name to the layer its self time is charged to.
var layerOf = map[string]string{
	"request":      "unattributed", // root: time no other span covers
	"gen.wait":     "gen.wait",
	"client.http":  "http.wire",
	"shard.call":   "http.wire",
	"client.codec": "client.codec",
	"front":        "handler.self",
	"shard":        "handler.self",
	"query.index":  "query.index",
}

// analyze assembles every traced request's span tree — client spans from the
// exchanges, server spans from the tracer, replayed index spans — and walks
// its critical path.
func analyze(ex []exchange, server []span, replay replayer) *breakdown {
	byTrace := map[uint64]*exchange{}
	var all []span
	for i := range ex {
		e := &ex[i]
		if e.trace == 0 || e.err != nil {
			continue
		}
		byTrace[e.trace] = e
		root := clientSpanID(e.trace, spanRoot)
		all = append(all,
			span{Trace: e.trace, ID: root, Name: "request", Start: e.due, End: e.done},
			span{Trace: e.trace, ID: clientSpanID(e.trace, spanWait), Parent: root, Name: "gen.wait", Start: e.due, End: e.taken},
			span{Trace: e.trace, ID: clientSpanID(e.trace, spanHTTP), Parent: root, Name: "client.http", Start: e.sent, End: e.headers},
			span{Trace: e.trace, ID: clientSpanID(e.trace, spanCodec), Parent: root, Name: "client.codec", Start: e.headers, End: e.done},
		)
	}
	var replayID uint64 = 1 << 62
	for i := range server {
		sp := &server[i]
		e := byTrace[sp.Trace]
		if e == nil {
			continue
		}
		all = append(all, *sp)
		if sp.Name != "front" && sp.Name != "shard" || sp.source() != "computed" {
			continue
		}
		if ns, ok := replay(sp, e); ok {
			replayID++
			all = append(all, span{Trace: sp.Trace, ID: replayID, Parent: sp.ID, Name: "query.index",
				Start: max(sp.End-ns, sp.Start), End: sp.End})
		}
	}

	kids := map[uint64][]*span{}
	var roots []*span
	for i := range all {
		sp := &all[i]
		if sp.Parent == 0 {
			roots = append(roots, sp)
		} else {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	b := &breakdown{layers: map[string]float64{}, spans: all}
	var total, fanout float64
	var walk func(sp *span, below bool)
	// walk charges sp's self time on the critical path: going back from its
	// end, the child that ends last is critical, children that overlap it
	// ran concurrently and are not, and uncovered time is sp's own.
	walk = func(sp *span, below bool) {
		cs := kids[sp.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].End > cs[j].End })
		cursor, self := sp.End, int64(0)
		for _, c := range cs {
			if c.End > cursor || c.End <= sp.Start {
				continue
			}
			self += cursor - c.End
			walk(c, below || c.Name == "shard.call")
			cursor = max(c.Start, sp.Start)
		}
		self += cursor - sp.Start
		b.layers[layerOf[sp.Name]] += float64(self)
		if below {
			fanout += float64(self)
		}
	}
	for _, r := range roots {
		b.requests++
		total += float64(r.End - r.Start)
		walk(r, false)
	}
	if b.requests > 0 {
		for k := range b.layers {
			b.layers[k] /= float64(b.requests)
		}
		b.meanNS = total / float64(b.requests)
		b.fanout = fanout / total
	}
	return b
}
