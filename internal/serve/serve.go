// Package serve is the network serving layer over the query engine: a
// stdlib-only HTTP JSON API that answers aggregate COUNT/SUM/AVG queries
// against one immutable publication through a precomputed query.Index —
// the publish-then-serve split the paper's consumption model presumes,
// made real over a socket.
//
// Endpoints (docs/SERVING.md has the full reference and a worked session):
//
//	POST /v1/query         one aggregate query (count, naive, sum, avg)
//	POST /v1/batch         a COUNT workload, answered deterministically
//	GET  /v1/metadata      release metadata: p, k, algorithm, rows,
//	                       guarantees, the schema, and the release-chain
//	                       position
//	POST /v1/admin/reload  hot-swap to the chain's next release (RCU over
//	                       the serving state; docs/REPUBLICATION.md)
//	GET  /v1/shard/stream  upgrade to a coordinator's shard stream
//	                       (internal; stream.go)
//	GET  /healthz          liveness probe
//
// The server is hardened for load rather than trust: a concurrency limiter
// admits at most MaxInFlight aggregate requests and sheds the rest with
// 429 + Retry-After (requests never queue unboundedly); every admitted
// request runs under a deadline and is cut off with 504 when it exceeds it;
// answers land in a sharded LRU cache keyed on the canonical query encoding,
// and concurrent duplicates of an uncached query are coalesced into one
// index traversal (singleflight). All of it is observable through
// internal/obs counters and latency histograms (docs/OBSERVABILITY.md
// catalogs the serve.* vocabulary).
//
// One Server answers over any backend (Answerer): a local index, or — at a
// Coordinator (coord.go) — the shard servers of a sharded release, reached
// over a persistent framed stream per connection (stream.go) in a binary
// codec of their own (shardcodec.go). The request path above is the same
// for both, and JSON handlers and shard-stream frames build the same
// request value (request) for it.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// Answerer is the query-answering backend of a Server: the four calls its
// answer path makes. New wraps a local *query.Index; a Coordinator answers
// through its remote shard group; tests substitute slow or call-counting
// implementations to exercise the timeout, limiter and singleflight paths.
// ctx carries the request's values but not its cancellation (see
// withDeadline): a backend bounds its own calls.
type Answerer interface {
	Count(ctx context.Context, q query.CountQuery) (float64, error)
	Naive(ctx context.Context, q query.CountQuery) (float64, error)
	// AvgParts is the compose form of SUM/AVG — the inverted region sum and
	// the region weight. SUM is the sum, AVG their quotient: the form a
	// sharded release composes in, since AVG itself is not additive. values
	// maps each sensitive code to its value; nil values each code as
	// itself.
	AvgParts(ctx context.Context, q query.CountQuery, values []float64) (sum, weight float64, err error)
	AnswerWorkload(ctx context.Context, qs []query.CountQuery, workers int) ([]float64, error)
}

// local adapts the context-free *query.Index to Answerer. Its answers are
// CPU-bound and never block, so there is nothing for the context to bound.
type local struct{ ix *query.Index }

func (l local) Count(_ context.Context, q query.CountQuery) (float64, error) { return l.ix.Count(q) }
func (l local) Naive(_ context.Context, q query.CountQuery) (float64, error) { return l.ix.Naive(q) }
func (l local) AvgParts(_ context.Context, q query.CountQuery, values []float64) (float64, float64, error) {
	return l.ix.AvgParts(q, valueFn(values))
}
func (l local) AnswerWorkload(_ context.Context, qs []query.CountQuery, workers int) ([]float64, error) {
	return l.ix.AnswerWorkload(qs, workers)
}

// Config parameterizes a Server.
type Config struct {
	// Index is the serving index (required); /v1/metadata reports its schema
	// and distinct-box count.
	Index *query.Index
	// Meta is the release metadata served at /v1/metadata.
	Meta pg.Metadata
	// MaxInFlight bounds concurrently admitted /v1/query + /v1/batch
	// requests; excess load is shed with 429. Default 8×GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout cuts off a single request's answer computation.
	// Default 10s.
	RequestTimeout time.Duration
	// CacheEntries bounds the result cache (total, split across shards).
	// 0 means the default 4096; negative disables caching.
	CacheEntries int
	// Workers is the /v1/batch fan-out (par semantics: 0 = GOMAXPROCS).
	// Batch answers are byte-identical for every value.
	Workers int
	// Metrics optionally receives the serve.* instrumentation, and the
	// query.* instruments of every index a reload installs from Source (the
	// caller observes Index itself; see query.Observe). nil disables.
	Metrics *obs.Registry
	// CRC is the serving snapshot's header CRC — the identity a successor
	// release's chain block must name as its parent. 0 (unknown) makes the
	// server reject reloads.
	CRC uint32
	// Chain is the serving snapshot's release-chain block, when it was
	// published as part of a re-publication chain. nil outside a chain.
	Chain *snapshot.ChainMetadata
	// Source re-opens the release origin (the -snapshot path, in pgserve)
	// and returns its current content. Reload calls it to pick up the next
	// release of the chain; nil disables reloading — /v1/admin/reload and
	// SIGHUP are refused with a clear error instead of swapping.
	Source func() (*ReleaseData, error)
	// DP enables the differential-privacy serving mode (docs/DP.md): every
	// aggregate answer is Laplace-noised and charged against the requesting
	// API key's ε-budget. nil serves exact answers — today's mode, byte for
	// byte.
	DP *DPConfig

	// prefix names the metric family: "serve", or "coord" for the server
	// NewCoordinator builds, so a coordinator and its shard servers can share
	// one registry without mixing their counters.
	prefix string
}

// release is the per-release serving state: everything a request answers
// from that changes when the server hot-swaps to the next snapshot of a
// re-publication chain. It hangs off Server.rel behind an atomic pointer —
// the RCU discipline: a handler loads the pointer once and works against
// that release for its whole lifetime, a reload builds a complete new
// release (fresh cache, fresh singleflight — answers never bleed across
// releases) and swaps the pointer. In-flight requests finish on the release
// they started on; nothing is ever mutated in place.
type release struct {
	answer Answerer
	// pins are the one-shard views a pinned query ("shard": s) answers
	// from — nil on a server over one publication, which rejects pins.
	pins []Answerer
	// computed is the Source label of an answer computed over answer:
	// "computed", or "merged" at a coordinator.
	computed string
	schema   *dataset.Schema
	meta     pg.Metadata
	groups   int
	cache    *resultCache
	flight   *flightGroup

	// number and crc identify the release within its chain: the chain
	// block's release number (-1 when the release was not published as part
	// of a chain) and the snapshot's header CRC (0 when unknown, e.g. a CSV
	// load; a manifest's file CRC at a coordinator). A loader validates the
	// next release against them; chain is the full block, echoed at
	// /v1/metadata.
	number int
	crc    uint32
	chain  *snapshot.ChainMetadata
}

// Server answers the HTTP API. It is safe for concurrent use; the only
// mutation after New is Reload's atomic swap of the serving release.
type Server struct {
	rel          atomic.Pointer[release]
	timeout      time.Duration
	workers      int
	sem          chan struct{}
	cacheEntries int
	// load builds the release to swap to from the serving one, or refuses
	// it with ErrReloadRejected; nil refuses every reload.
	load     func(ctx context.Context, cur *release) (*release, error)
	reloadMu sync.Mutex // serializes Reload; never held by the query path
	// dp lives on the Server, not the release: a hot-swap re-keys the noise
	// (the new CRC feeds every draw) but never refunds spent ε.
	dp *serverDP
	// routes are extra endpoints mounted next to the API (a coordinator's
	// /v1/shards).
	routes map[string]http.HandlerFunc

	met struct {
		reqQuery    *obs.Counter
		reqBatch    *obs.Counter
		reqMetadata *obs.Counter
		errors      *obs.Counter
		shed        *obs.Counter
		timeouts    *obs.Counter
		cacheHits   *obs.Counter
		cacheMiss   *obs.Counter
		cacheEvict  *obs.Counter
		coalesced   *obs.Counter
		latQuery    *obs.Histogram
		latBatch    *obs.Histogram

		reloadAttempts *obs.Counter
		reloadSwapped  *obs.Counter
		reloadRejected *obs.Counter
		reloadErrors   *obs.Counter
		reloadLatency  *obs.Histogram
		releaseGauge   *obs.Gauge
	}
}

// New validates the configuration and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("serve: Config.Index is required")
	}
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Source != nil {
		s.load = sourceLoader(cfg.Source, cfg.Metrics)
	}
	s.install(localRelease(&ReleaseData{Index: cfg.Index, Meta: cfg.Meta, CRC: cfg.CRC, Chain: cfg.Chain}))
	return s, nil
}

// localRelease is the serving state of one release answered from its own
// index: the one New starts on, and each one a Source reload swaps in.
func localRelease(d *ReleaseData) *release {
	rel := &release{
		answer:   local{d.Index},
		computed: "computed",
		schema:   d.Index.Schema(),
		meta:     d.Meta,
		groups:   d.Index.Groups(),
		number:   -1,
		crc:      d.CRC,
		chain:    d.Chain,
	}
	if d.Chain != nil {
		rel.number = d.Chain.Release
	}
	return rel
}

// newServer builds a Server with no release installed: New installs the
// configured one, a Coordinator the one its Start validates.
func newServer(cfg Config) (*Server, error) {
	s := &Server{
		timeout: cfg.RequestTimeout,
		workers: cfg.Workers,
	}
	var err error
	if s.dp, err = newServerDP(cfg.DP, cfg.Metrics); err != nil {
		return nil, err
	}
	if s.timeout <= 0 {
		s.timeout = 10 * time.Second
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 8 * runtime.GOMAXPROCS(0)
	}
	s.sem = make(chan struct{}, maxInFlight)
	s.cacheEntries = cfg.CacheEntries
	if s.cacheEntries == 0 {
		s.cacheEntries = 4096
	}

	p, reg := cfg.prefix, cfg.Metrics
	if p == "" {
		p = "serve"
	}
	s.met.reqQuery = reg.Counter(p + ".requests.query")
	s.met.reqBatch = reg.Counter(p + ".requests.batch")
	s.met.reqMetadata = reg.Counter(p + ".requests.metadata")
	s.met.errors = reg.Counter(p + ".errors")
	s.met.shed = reg.Counter(p + ".shed")
	s.met.timeouts = reg.Counter(p + ".timeouts")
	s.met.cacheHits = reg.Counter(p + ".cache.hits")
	s.met.cacheMiss = reg.Counter(p + ".cache.misses")
	s.met.cacheEvict = reg.Counter(p + ".cache.evictions")
	s.met.coalesced = reg.Counter(p + ".coalesced")
	s.met.latQuery = reg.Histogram(p+".latency.query", "ns")
	s.met.latBatch = reg.Histogram(p+".latency.batch", "ns")
	s.met.reloadAttempts = reg.Counter(p + ".reload.attempts")
	s.met.reloadSwapped = reg.Counter(p + ".reload.swapped")
	s.met.reloadRejected = reg.Counter(p + ".reload.rejected")
	s.met.reloadErrors = reg.Counter(p + ".reload.errors")
	s.met.reloadLatency = reg.Histogram(p+".reload.latency", "ns")
	s.met.releaseGauge = reg.Gauge(p + ".release")
	s.met.releaseGauge.Set(-1)
	return s, nil
}

// install makes rel the serving release, with a fresh cache and
// singleflight (rel.cache is nil when caching is disabled).
func (s *Server) install(rel *release) {
	rel.cache = newResultCache(s.cacheEntries)
	rel.flight = newFlightGroup()
	s.rel.Store(rel)
	s.met.releaseGauge.Set(int64(rel.number))
}

// Handler returns the API mux. The debug/metrics surface is deliberately not
// on it — expose that through obs.Registry.Serve on a separate port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/metadata", s.handleMetadata)
	mux.HandleFunc("/v1/admin/reload", s.handleReload)
	mux.HandleFunc(streamPath, s.handleStream)
	if s.dp != nil {
		mux.HandleFunc("/v1/dp/budget", s.dp.handleBudget)
	}
	for path, h := range s.routes {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// HTTPServer is a running API endpoint. Shutdown drains in-flight requests
// and shard-stream frames; Close aborts them.
type HTTPServer struct {
	// Addr is the bound listen address (resolves ":0" to the real port).
	Addr    string
	srv     *http.Server
	lis     net.Listener
	streams *streamSet
}

// Serve starts the API server on addr and returns once the listener
// accepts. The server runs until Shutdown or Close.
func (s *Server) Serve(addr string) (*HTTPServer, error) {
	return serveHandler(addr, s.Handler())
}

// serveHandler binds addr and runs h on it.
func serveHandler(addr string, h http.Handler) (*HTTPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	streams := newStreamSet()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		// Every request carries the stream set, so the streams its
		// connections are upgraded to are this server's to shut down.
		BaseContext: func(net.Listener) context.Context {
			return context.WithValue(context.Background(), streamSetKey{}, streams)
		},
	}
	hs := &HTTPServer{Addr: lis.Addr().String(), srv: srv, lis: lis, streams: streams}
	go srv.Serve(lis) //nolint:errcheck // Serve always returns ErrServerClosed after Shutdown/Close
	return hs, nil
}

// Shutdown stops accepting new connections and waits for in-flight requests
// to complete, up to ctx's deadline — the graceful drain SIGTERM triggers in
// cmd/pgserve. Shard streams are closed once idle: an idle one at once, one
// with a frame in flight after its reply.
func (h *HTTPServer) Shutdown(ctx context.Context) error {
	if h == nil || h.srv == nil {
		return nil
	}
	h.streams.closeIdle()
	err := h.srv.Shutdown(ctx)
	if serr := h.streams.wait(ctx); err == nil {
		err = serr
	}
	return err
}

// Close abandons in-flight requests and shard-stream frames and releases the
// listener.
func (h *HTTPServer) Close() error {
	if h == nil || h.srv == nil {
		return nil
	}
	h.streams.close()
	return h.srv.Close()
}

// ---------------------------------------------------------------------------
// Wire types

// WhereClause restricts one QI attribute to an inclusive range. The
// attribute is named (Attr) or positional (Dim); Lo and Hi each accept a
// domain label (JSON string) or a code (JSON number). Omitted Lo/Hi default
// to the domain edge.
type WhereClause struct {
	Attr string          `json:"attr,omitempty"`
	Dim  *int            `json:"dim,omitempty"`
	Lo   json.RawMessage `json:"lo,omitempty"`
	Hi   json.RawMessage `json:"hi,omitempty"`
}

// QueryRequest is the /v1/query body. Op defaults to "count". Sensitive
// lists the qualifying sensitive codes (a mask; any subset, contiguous or
// not). Values optionally maps each sensitive code to its numeric value for
// sum/avg; it defaults to the code itself. Shard pins the query to one
// shard of a sharded release — it is meaningful only at a coordinator,
// which answers from that shard alone (a per-shard drill-down, what the
// attack fleet uses to audit shards individually); a single-snapshot server
// rejects it.
type QueryRequest struct {
	Op        string        `json:"op,omitempty"`
	Where     []WhereClause `json:"where,omitempty"`
	Sensitive []int32       `json:"sensitive,omitempty"`
	Values    []float64     `json:"values,omitempty"`
	Shard     *int          `json:"shard,omitempty"`
}

// QueryResponse is the /v1/query answer. Source reports how the answer was
// produced: "computed", "cache", or "coalesced" (shared a concurrent
// duplicate's computation); a coordinator computes "merged" (fanned out to
// every shard) or "shard" (pinned to one) answers. For sum and avg, Sum and
// Weight carry the compose pair (inverted region sum, region weight) the
// estimate was assembled from — the fields a coordinator merges, since AVG
// is not additive but Σ sums / Σ weights is exact. In DP mode the compose
// pair is withheld (it would leak more than the charged ε) and DP carries
// the accounting instead.
type QueryResponse struct {
	Op       string   `json:"op"`
	Estimate float64  `json:"estimate"`
	Source   string   `json:"source"`
	Sum      *float64 `json:"sum,omitempty"`
	Weight   *float64 `json:"weight,omitempty"`
	DP       *DPInfo  `json:"dp,omitempty"`
}

// BatchRequest is the /v1/batch body: a COUNT workload.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse carries the batch answers in request order. The byte
// rendering is identical for every server worker count — the determinism
// contract of query.AnswerWorkload carried to the wire. In DP mode each
// estimate is noised under its own query's canonical key (so a batched
// query answers identically to the same query sent alone) and DP carries
// the accounting of the single combined charge (n·ε_per_query).
type BatchResponse struct {
	Estimates []float64 `json:"estimates"`
	DP        *DPInfo   `json:"dp,omitempty"`
}

// MetadataResponse is the /v1/metadata document: the release metadata plus
// the serving index's group count. Shards is 0 for a single-snapshot server
// and the shard count at a coordinator, whose rows and groups are the
// totals across shards. Release echoes the serving snapshot's release-chain
// block when it was published as part of a re-publication chain — the field
// a reload watcher polls to confirm a hot-swap landed.
type MetadataResponse struct {
	pg.Metadata
	Groups  int                     `json:"groups"`
	Shards  int                     `json:"shards,omitempty"`
	Release *snapshot.ChainMetadata `json:"release,omitempty"`
	// DP advertises the differential-privacy serving mode when it is on:
	// clients should expect noised answers and ε accounting (docs/DP.md).
	DP *DPMetadata `json:"dp,omitempty"`
	// Schema is the publication's schema: what a query names and codes
	// refer to, and what a coordinator parses queries against.
	Schema *SchemaInfo `json:"schema,omitempty"`
}

// SchemaInfo is the /v1/metadata schema block: the QI attributes in
// dimension order and the sensitive attribute.
type SchemaInfo struct {
	QI        []AttributeInfo `json:"qi"`
	Sensitive AttributeInfo   `json:"sensitive"`
}

// AttributeInfo is one attribute of the schema block: its name, its kind
// ("discrete" or "continuous") and its domain's labels in code order.
type AttributeInfo struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Labels []string `json:"labels"`
}

func schemaInfo(s *dataset.Schema) *SchemaInfo {
	attr := func(a *dataset.Attribute) AttributeInfo {
		return AttributeInfo{Name: a.Name, Kind: a.Kind.String(), Labels: a.Values}
	}
	si := &SchemaInfo{Sensitive: attr(s.Sensitive)}
	for _, a := range s.QI {
		si.QI = append(si.QI, attr(a))
	}
	return si
}

// schema decodes the block through the dataset constructors, so a decoded
// schema obeys every rule a published one does.
func (si *SchemaInfo) schema() (*dataset.Schema, error) {
	attr := func(ai AttributeInfo) (*dataset.Attribute, error) {
		a, err := dataset.NewAttribute(ai.Name, ai.Labels...)
		if err != nil {
			return nil, err
		}
		switch ai.Kind {
		case dataset.Discrete.String():
		case dataset.Continuous.String():
			a.Kind = dataset.Continuous
		default:
			return nil, fmt.Errorf("attribute %q has unknown kind %q", ai.Name, ai.Kind)
		}
		return a, nil
	}
	qi := make([]*dataset.Attribute, len(si.QI))
	for i, ai := range si.QI {
		a, err := attr(ai)
		if err != nil {
			return nil, fmt.Errorf("schema block: QI attribute %d: %w", i, err)
		}
		qi[i] = a
	}
	sens, err := attr(si.Sensitive)
	if err != nil {
		return nil, fmt.Errorf("schema block: sensitive attribute: %w", err)
	}
	s, err := dataset.NewSchema(qi, sens)
	if err != nil {
		return nil, fmt.Errorf("schema block: %w", err)
	}
	return s, nil
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // the client is gone; nothing to do
}

// fail renders a failed request. A shard failure answers with the status
// its shardFailure maps to, a missed deadline is a 504, a body over
// maxBodyBytes a 413, and anything else is the client's error: 400.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var (
		sf  *shardFailure
		big *http.MaxBytesError
	)
	switch {
	case errors.As(err, &sf):
		s.met.errors.Inc()
		status, msg := sf.response()
		writeJSON(w, status, errorResponse{Error: msg})
	case errors.As(err, &big):
		s.met.errors.Inc()
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body over the %d-byte limit", big.Limit)})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.met.timeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request timed out"})
	default:
		s.met.errors.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	s.met.errors.Inc()
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
	return false
}

// maxBodyBytes bounds a request body: a JSON /v1/query or /v1/batch body
// over HTTP, which gets 413 past it, and a shard-stream frame, whose stream
// is closed on a longer length claim before anything is allocated for it.
// It is far above any batch a client, the coordinator or the attack fleet
// sends.
const maxBodyBytes = 64 << 20

// decodeJSON reads a POST's JSON body of at most maxBodyBytes into v — a
// body declared longer is refused before any of it is read — or fails the
// request and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if !s.requirePost(w, r) {
		return false
	}
	body, err := r.Body, error(nil)
	switch {
	case r.ContentLength > maxBodyBytes:
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	case r.ContentLength < 0:
		// A declared length bounds the body already: net/http reads no
		// further. Only a chunked body needs the limit enforced as it is read.
		body = http.MaxBytesReader(w, body, maxBodyBytes)
	}
	if err == nil {
		err = json.NewDecoder(body).Decode(v)
	}
	if err != nil {
		s.fail(w, fmt.Errorf("decoding request: %w", err))
	}
	return err == nil
}

// request is one aggregate request — a /v1/query or /v1/batch body, or a
// query or batch frame off a shard stream — pinned to one release from
// decode to reply. JSON handlers and frames build it the same way
// (Server.request) and differ only in how they decode the body into it.
type request struct {
	s     *Server
	w     http.ResponseWriter
	r     *http.Request
	frame *frameWriter // a shard stream's reply frame, for a shard-codec reply; nil for JSON
	rel   *release

	// The decoded query, or a batch's queries.
	op     string
	q      query.CountQuery
	values []float64
	qs     []query.CountQuery

	// answer answers the query, key is its canonical encoding — its identity
	// in the cache and in the DP noise — and source labels a computed answer.
	answer      Answerer
	key, source string

	budget *dp.Budget // the API key's budget a DP request is charged against; nil outside DP mode
	rem    float64    // the budget left after the charge
}

// request starts an aggregate request: one pointer load pins it to the
// serving release even if a reload swaps it mid-request. Written to a shard
// stream's frameWriter it replies in the shard codec; otherwise it names the
// release in X-PG-Release, so a client can detect a hot-swap mid-session.
func (s *Server) request(w http.ResponseWriter, r *http.Request) request {
	rq := request{s: s, w: w, r: r, rel: s.rel.Load()}
	if rq.frame, _ = w.(*frameWriter); rq.frame == nil && rq.rel.crc != 0 {
		w.Header().Set("X-PG-Release", fmt.Sprintf("%08x", rq.rel.crc))
	}
	return rq
}

// setQuery sets the decoded query and what answers it: the release's
// backend or, when shard pins the query, that one shard's.
func (rq *request) setQuery(op string, q query.CountQuery, values []float64, shard *int) error {
	rel := rq.rel
	rq.op, rq.q, rq.values = op, q, values
	rq.answer, rq.key, rq.source = rel.answer, QueryKey(rel.schema, op, q, values), rel.computed
	switch {
	case shard == nil:
	case rel.pins == nil:
		return fmt.Errorf("shard pinning is a coordinator feature; this server holds one snapshot")
	case *shard < 0 || *shard >= len(rel.pins):
		return fmt.Errorf("shard %d outside [0,%d]", *shard, len(rel.pins)-1)
	default:
		// The prefix keys a pinned answer apart from the whole-release answer
		// to the same query, in the cache and in the DP noise: they are
		// different observations and must not share a draw.
		rq.answer, rq.key, rq.source = rel.pins[*shard], fmt.Sprintf("shard:%d|", *shard)+rq.key, "shard"
	}
	return nil
}

// admit is the gate every aggregate request passes before it is answered:
// DP authorization, a limiter slot — or 429 + Retry-After: excess load is
// shed, never queued — then, in DP mode, the charge for n queries. The
// charge comes after admission (shed requests must not consume ε) and
// before the computation: an admitted DP query is charged even when it
// then errors, because data-dependent failures — an AVG region estimated
// empty under noise, a timeout — are observations too. On refusal admit
// has written the response; otherwise the caller must free its limiter
// slot when it returns.
func (rq *request) admit(n int) bool {
	s := rq.s
	if s.dp != nil {
		var ok bool
		if rq.budget, ok = s.dp.authorize(rq.w, rq.r); !ok {
			return false
		}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.shed.Inc()
		rq.w.Header().Set("Retry-After", "1")
		writeJSON(rq.w, http.StatusTooManyRequests, errorResponse{Error: "server saturated, retry later"})
		return false
	}
	if rq.budget != nil && !rq.charge(n) {
		<-s.sem
		return false
	}
	return true
}

// reply writes the failure err, or resp: as JSON, or on a frame its exact
// answer in the shard codec (a DP server takes no frames).
func (rq *request) reply(resp any, err error) {
	switch one, isOne := resp.(QueryResponse); {
	case err != nil:
		rq.s.fail(rq.w, err)
	case rq.frame == nil:
		writeJSON(rq.w, http.StatusOK, resp)
	case isOne:
		rq.frame.buf = appendQueryReply(rq.frame.buf, one)
	default:
		rq.frame.buf = appendEstimates(rq.frame.buf, resp.(BatchResponse).Estimates)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.reqQuery.Inc()
	var req QueryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	rq := s.request(w, r)
	op, q, values, err := parseQuery(rq.rel.schema, &req)
	if err == nil {
		err = rq.setQuery(op, q, values, req.Shard)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	rq.answerQuery()
}

// answerQuery answers the decoded query: admission, the answer path, DP
// noise and the reply.
func (rq *request) answerQuery() {
	if !rq.admit(1) {
		return
	}
	defer func() { <-rq.s.sem }()

	t0 := time.Now()
	val, source, err := rq.answerOne()
	rq.s.met.latQuery.Observe(time.Since(t0).Nanoseconds())
	resp := QueryResponse{Op: rq.op, Estimate: val.est, Source: source}
	switch {
	case err != nil: // reply fails the request
	case rq.budget != nil:
		// Under DP only the noised weight decides whether an AVG region is
		// empty: the exact weight is never observed.
		resp.Estimate, err = rq.noised(val)
		resp.DP = &DPInfo{Epsilon: rq.budget.PerQuery, Remaining: rq.rem}
	case rq.op == "avg" && val.weight == 0:
		err = errors.New("region estimated empty")
	case rq.op == "sum" || rq.op == "avg":
		pair := [2]float64{val.sum, val.weight}
		resp.Sum, resp.Weight = &pair[0], &pair[1]
	}
	rq.reply(resp, err)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.reqBatch.Inc()
	var req BatchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	rq := s.request(w, r)
	rq.qs = make([]query.CountQuery, len(req.Queries))
	for i := range rq.qs {
		if req.Queries[i].Shard != nil {
			s.fail(w, fmt.Errorf("query %d: shard pinning is not available in batches", i))
			return
		}
		op, q, _, err := parseQuery(rq.rel.schema, &req.Queries[i])
		if err == nil && op != "count" {
			err = fmt.Errorf("batch answers COUNT only, got op %q", op)
		}
		if err != nil {
			s.fail(w, fmt.Errorf("query %d: %w", i, err))
			return
		}
		rq.qs[i] = q
	}
	rq.answerBatch()
}

// answerBatch answers the decoded COUNT workload.
func (rq *request) answerBatch() {
	s, rel, qs := rq.s, rq.rel, rq.qs
	// One combined charge of n·ε_per_query: the batch answers n queries, so
	// it costs n queries' worth of budget — batching is a transport
	// convenience, not a discount.
	if !rq.admit(len(qs)) {
		return
	}
	defer func() { <-rq.s.sem }()

	t0 := time.Now()
	ests, err := withDeadline(rq.r.Context(), s.timeout, func(ctx context.Context) ([]float64, error) {
		return rel.answer.AnswerWorkload(ctx, qs, s.workers)
	})
	s.met.latBatch.Observe(time.Since(t0).Nanoseconds())
	if ests == nil {
		ests = []float64{}
	}
	resp := BatchResponse{Estimates: ests}
	if rq.budget != nil && err == nil {
		// Each estimate is noised under its own query's canonical key, so a
		// batched query answers identically to the same query sent alone
		// under the same key and release.
		m := dp.Mechanism{Seed: s.dp.seed, CRC: rel.crc}
		for i := range ests {
			k := QueryKey(rel.schema, "count", qs[i], nil)
			ests[i], _ = m.Answer(rq.budget.Key, k, "count", ests[i], 0, 0, rq.budget.PerQuery, 1) // a count is never refused
		}
		resp.DP = &DPInfo{Epsilon: float64(len(qs)) * rq.budget.PerQuery, Remaining: rq.rem}
		s.dp.met.queries.Add(int64(len(qs)))
	}
	rq.reply(resp, err)
}

func (s *Server) handleMetadata(w http.ResponseWriter, r *http.Request) {
	s.met.reqMetadata.Inc()
	rel := s.rel.Load()
	writeJSON(w, http.StatusOK, MetadataResponse{
		Metadata: rel.meta, Groups: rel.groups, Shards: len(rel.pins), Release: rel.chain,
		DP: s.dp.metadata(), Schema: schemaInfo(rel.schema),
	})
}

// ---------------------------------------------------------------------------
// Answer path: cache → singleflight → backend, under a deadline

// answerOne resolves the query through the release's cache, coalescing
// concurrent duplicates, bounded by the request timeout. Cache and
// singleflight belong to the release, so a leader that outlives a hot-swap
// still populates (only) its own release's cache. The computation gets
// copies of what it needs, never the request: it may outlive the handler.
func (rq *request) answerOne() (val answerVal, source string, err error) {
	s, rel, key, answer, op, q, values := rq.s, rq.rel, rq.key, rq.answer, rq.op, rq.q, rq.values
	if v, ok := rel.cache.get(key); ok {
		s.met.cacheHits.Inc()
		return v, "cache", nil
	}
	s.met.cacheMiss.Inc()

	type result struct {
		v      answerVal
		shared bool
	}
	r, err := withDeadline(rq.r.Context(), s.timeout, func(ctx context.Context) (result, error) {
		v, shared, err := rel.flight.do(key, func() (answerVal, error) {
			v, err := compute(ctx, answer, op, q, values)
			if err == nil && rel.cache.put(key, v) {
				s.met.cacheEvict.Inc()
			}
			return v, err
		})
		return result{v, shared}, err
	})
	switch {
	case err != nil:
		return answerVal{}, "", err
	case r.shared:
		s.met.coalesced.Inc()
		return r.v, "coalesced", nil
	default:
		return r.v, rq.source, nil
	}
}

// withDeadline runs fn under the request timeout. A timed-out fn keeps
// running in the background — an answer still lands in the cache, only the
// response slot is lost. fn gets the request's values but not its
// cancellation: a coordinator's shard calls carry the request's trace, and
// a singleflight leader whose client disconnects cannot fail the followers
// sharing its computation. The backend bounds its own calls (a
// coordinator's per-shard timeout).
func withDeadline[T any](ctx context.Context, timeout time.Duration, fn func(context.Context) (T, error)) (T, error) {
	detached := context.WithoutCancel(ctx)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := fn(detached)
		ch <- result{v, err}
	}()
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case r := <-ch:
		return r.v, r.err
	}
}

// compute dispatches to the Answerer. sum and avg resolve through AvgParts
// so the response can expose the compose pair alongside the estimate. An
// avg over a region of weight 0 is not an error here: the handler decides
// emptiness, from the exact weight or, in DP mode, the noised one.
func compute(ctx context.Context, answer Answerer, op string, q query.CountQuery, values []float64) (answerVal, error) {
	switch op {
	case "count":
		est, err := answer.Count(ctx, q)
		return answerVal{est: est}, err
	case "naive":
		est, err := answer.Naive(ctx, q)
		return answerVal{est: est}, err
	case "sum", "avg":
		sum, weight, err := answer.AvgParts(ctx, q, values)
		v := answerVal{est: sum, sum: sum, weight: weight}
		if op == "avg" && weight != 0 {
			v.est = sum / weight
		}
		return v, err
	default:
		return answerVal{}, fmt.Errorf("unknown op %q (want count, naive, sum or avg)", op)
	}
}

func valueFn(values []float64) query.SensitiveValue {
	if values == nil {
		return func(code int32) float64 { return float64(code) }
	}
	return func(code int32) float64 { return values[code] }
}

// ---------------------------------------------------------------------------
// Request parsing and canonical keys

// parseQuery validates a wire query against the schema and resolves it to
// the engine's CountQuery form. It ignores Shard, which is the handler's
// to resolve. The rules on a resolved query — newQuery, qiAttr, narrow and
// finishQuery — are the ones the shard codec's decoder applies too.
func parseQuery(schema *dataset.Schema, req *QueryRequest) (op string, q query.CountQuery, values []float64, err error) {
	if op, q, err = newQuery(schema, req.Op); err != nil {
		return "", q, nil, err
	}
	for i, c := range req.Where {
		j := -1
		switch {
		case c.Attr != "" && c.Dim != nil:
			return "", q, nil, fmt.Errorf("where[%d]: set attr or dim, not both", i)
		case c.Attr != "":
			if j = schema.QIIndex(c.Attr); j < 0 {
				return "", q, nil, fmt.Errorf("where[%d]: unknown attribute %q", i, c.Attr)
			}
		case c.Dim != nil:
			j = *c.Dim
		default:
			return "", q, nil, fmt.Errorf("where[%d]: attr or dim is required", i)
		}
		a, err := qiAttr(schema, j)
		if err != nil {
			return "", q, nil, fmt.Errorf("where[%d]: %w", i, err)
		}
		lo, hi := int32(0), int32(a.Size()-1)
		if lo, err = resolveBound(a, c.Lo, lo); err == nil {
			if hi, err = resolveBound(a, c.Hi, hi); err == nil {
				err = narrow(&q, a, j, lo, hi)
			}
		}
		if err != nil {
			return "", q, nil, fmt.Errorf("where[%d] (%s): %w", i, a.Name, err)
		}
	}
	return finishQuery(schema, op, q, req.Sensitive, req.Values)
}

// newQuery checks op ("" means count) and returns the query over every
// domain in full, for the decoder to narrow.
func newQuery(schema *dataset.Schema, op string) (string, query.CountQuery, error) {
	var q query.CountQuery
	if op == "" {
		op = "count"
	}
	switch op {
	case "count", "naive", "sum", "avg":
	default:
		return "", q, fmt.Errorf("unknown op %q (want count, naive, sum or avg)", op)
	}
	q.QI = make([]query.Range, schema.D())
	for j, a := range schema.QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	return op, q, nil
}

// qiAttr returns QI attribute j, or the error for a dimension outside the
// schema.
func qiAttr(schema *dataset.Schema, j int) (*dataset.Attribute, error) {
	if j < 0 || j >= schema.D() {
		return nil, fmt.Errorf("dim %d outside [0,%d]", j, schema.D()-1)
	}
	return schema.QI[j], nil
}

// narrow restricts dimension j, attribute a, of q to the codes [lo, hi].
func narrow(q *query.CountQuery, a *dataset.Attribute, j int, lo, hi int32) error {
	for _, code := range [2]int32{lo, hi} {
		if !a.Valid(code) {
			return fmt.Errorf("code %d outside the %q domain [0,%d]", code, a.Name, a.Size()-1)
		}
	}
	if lo > hi {
		return fmt.Errorf("inverted range [%d,%d]", lo, hi)
	}
	q.QI[j] = query.Range{Lo: lo, Hi: hi}
	return nil
}

// finishQuery sets q's sensitive mask from the qualifying codes (nil: no
// mask) and checks the sum/avg value vector.
func finishQuery(schema *dataset.Schema, op string, q query.CountQuery, sensitive []int32, values []float64) (string, query.CountQuery, []float64, error) {
	if sensitive != nil {
		domain := schema.SensitiveDomain()
		mask := make([]bool, domain)
		for _, code := range sensitive {
			if code < 0 || int(code) >= domain {
				return "", q, nil, fmt.Errorf("sensitive code %d outside [0,%d]", code, domain-1)
			}
			mask[code] = true
		}
		q.Sensitive = mask
	}
	if values != nil {
		if op != "sum" && op != "avg" {
			return "", q, nil, fmt.Errorf("values apply to sum/avg only")
		}
		if len(values) != schema.SensitiveDomain() {
			return "", q, nil, fmt.Errorf("values has %d entries, sensitive domain is %d",
				len(values), schema.SensitiveDomain())
		}
	}
	return op, q, values, nil
}

// resolveBound maps a JSON bound — a domain label (string) or a code
// (number) — to a validated code; missing bounds keep the default. A bound
// that starts like a JSON number (a minus sign or a digit) cannot decode as
// a string, so it goes straight to the code decode: clients that send
// codes (the attack fleet, the benchmark) send every bound as a number,
// and the failed string decode would allocate an error per bound.
func resolveBound(a *dataset.Attribute, raw json.RawMessage, def int32) (int32, error) {
	if len(raw) == 0 {
		return def, nil
	}
	if c := raw[0]; c != '-' && (c < '0' || c > '9') {
		var label string
		if err := json.Unmarshal(raw, &label); err == nil {
			return a.Code(label)
		}
	}
	var code int32
	if err := json.Unmarshal(raw, &code); err != nil {
		return 0, fmt.Errorf("bound %s is neither a label nor a code", raw)
	}
	if !a.Valid(code) {
		return 0, fmt.Errorf("code %d outside the %q domain [0,%d]", code, a.Name, a.Size()-1)
	}
	return code, nil
}

// QueryKey renders the canonical encoding of an aggregate query: op tag,
// the restricting ranges only (full-domain dims are dropped, so equivalent
// requests collide), the sensitive mask as a code list, and the sum/avg
// value vector's bit patterns. Two requests with equal keys have equal
// answers, which is what makes the key safe as a cache/coalescing identity.
// Offline tools use it too: pgquery's DP mode must key its noise on exactly
// the string the server would use, or the served-vs-offline equivalence
// breaks.
func QueryKey(schema *dataset.Schema, op string, q query.CountQuery, values []float64) string {
	b := make([]byte, 0, 64)
	b = append(b, op...)
	b = append(b, 0)
	for j, r := range q.QI {
		if r.Lo == 0 && int(r.Hi) == schema.QI[j].Size()-1 {
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Lo))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Hi))
	}
	if q.Sensitive != nil {
		b = append(b, 1)
		for code, in := range q.Sensitive {
			if in {
				b = binary.LittleEndian.AppendUint32(b, uint32(code))
			}
		}
	}
	if values != nil {
		b = append(b, 2)
		for _, v := range values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return string(b)
}
