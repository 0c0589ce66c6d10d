package attackfleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pgpub/internal/obs"
	"pgpub/internal/serve"
)

// client is the fleet's view of a pgserve endpoint: every adversary
// observation flows through /v1/query here. It retries load-shedding (429)
// and deadline (504) responses with backoff — a real adversary is patient —
// while counting *logical* queries separately from retries, so the query
// count in the report is deterministic even when the limiter sheds some of
// the fleet's own traffic.
// Against a sharded release the fleet talks to the coordinator, and forShard
// derives per-shard views that pin every query to one shard — the adversary
// knows the public round-robin assignment, and a merged answer (summed over
// shards) would smear the per-box fingerprints the reconstruction reads.
type client struct {
	base  string
	hc    *http.Client
	shard *int // pin queries to this coordinator shard (nil = unpinned)

	// Pointers so forShard copies share the totals.
	queries *atomic.Int64 // logical queries answered (retries excluded)
	retries *atomic.Int64
	// release is the X-PG-Release value of the first answer (shared across
	// forShard copies). A reconstruction stitches many answers together; if
	// the server hot-swaps mid-session the observations span two releases and
	// the stitched fingerprints are garbage, so the client fails loudly
	// instead.
	release *atomic.Pointer[string]

	met struct {
		queries *obs.Counter
		retries *obs.Counter
		latency *obs.Histogram
	}
}

// queryAttempts bounds the shed/timeout retries of one logical query. With
// exponential backoff from 2ms capped at 250ms this rides out several
// seconds of saturation before giving up.
const queryAttempts = 12

func newClient(base string, workers int, reg *obs.Registry) *client {
	c := &client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        2 * workers,
				MaxIdleConnsPerHost: 2 * workers,
			},
		},
		queries: &atomic.Int64{},
		retries: &atomic.Int64{},
		release: &atomic.Pointer[string]{},
	}
	c.met.queries = reg.Counter("fleet.queries")
	c.met.retries = reg.Counter("fleet.retries")
	c.met.latency = reg.Histogram("fleet.latency.query", "ns")
	return c
}

// metadata fetches the release metadata the server announces.
func (c *client) metadata() (serve.MetadataResponse, error) {
	var md serve.MetadataResponse
	resp, err := c.hc.Get(c.base + "/v1/metadata")
	if err != nil {
		return md, fmt.Errorf("attackfleet: fetching metadata: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return md, fmt.Errorf("attackfleet: metadata request returned %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&md); err != nil {
		return md, fmt.Errorf("attackfleet: decoding metadata: %w", err)
	}
	return md, nil
}

// forShard returns a view of the client that pins every query to coordinator
// shard s. The copy shares the connection pool and counters.
func (c *client) forShard(s int) *client {
	cc := *c
	cc.shard = &s
	return &cc
}

// query answers one aggregate query, retrying shed and timed-out attempts.
// Queries are idempotent reads, so re-POSTing after a transport error is
// safe.
func (c *client) query(req serve.QueryRequest) (float64, error) {
	if c.shard != nil {
		req.Shard = c.shard
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("attackfleet: encoding query: %w", err)
	}
	c.queries.Add(1)
	c.met.queries.Inc()
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < queryAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			c.met.retries.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
		}
		t0 := time.Now()
		resp, err := c.hc.Post(c.base+"/v1/query", "application/json", bytes.NewReader(body))
		c.met.latency.Observe(time.Since(t0).Nanoseconds())
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var qr serve.QueryResponse
			derr := json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if derr != nil {
				return 0, fmt.Errorf("attackfleet: decoding answer: %w", derr)
			}
			if err := c.checkRelease(resp.Header.Get("X-PG-Release")); err != nil {
				return 0, err
			}
			return qr.Estimate, nil
		case http.StatusTooManyRequests, http.StatusGatewayTimeout:
			lastErr = fmt.Errorf("server returned %d", resp.StatusCode)
			drain(resp)
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return 0, fmt.Errorf("attackfleet: query rejected (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
	return 0, fmt.Errorf("attackfleet: query failed after %d attempts: %w", queryAttempts, lastErr)
}

// checkRelease compares an answer's X-PG-Release header against the first
// one this session observed. A change means the server hot-swapped while the
// attack was collecting observations — they no longer describe one release.
// Servers without a release identity (CSV-backed, CRC unknown) send no
// header; those sessions are unchecked.
func (c *client) checkRelease(rel string) error {
	if rel == "" {
		return nil
	}
	if !c.release.CompareAndSwap(nil, &rel) {
		if first := *c.release.Load(); first != rel {
			return fmt.Errorf("attackfleet: the server hot-swapped mid-session (release %s, session started on %s); observations span two releases — restart the attack", rel, first)
		}
	}
	return nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	resp.Body.Close()
}

// ---------------------------------------------------------------------------
// Request builders. All bounds are sent as raw JSON numbers (codes), and
// every builder pins all QI dimensions, so answers always come from the
// index's exact kd traversal rather than the grid summed-area path (which
// only serves queries restricting at most two dimensions).

func rawInt(v int32) json.RawMessage { return json.RawMessage(strconv.Itoa(int(v))) }

// pointWhere pins every QI dimension to vq, with dim j overridden to
// [lo, hi] when j >= 0.
func pointWhere(vq []int32, j int, lo, hi int32) []serve.WhereClause {
	where := make([]serve.WhereClause, len(vq))
	for d := range vq {
		dim := d
		l, h := vq[d], vq[d]
		if d == j {
			l, h = lo, hi
		}
		where[d] = serve.WhereClause{Dim: &dim, Lo: rawInt(l), Hi: rawInt(h)}
	}
	return where
}

// naivePoint is the NAIVE box weight at a QI point: Σ G·vf over the covering
// published row, i.e. G/vol(box) — the crucial tuple's fingerprint.
func (c *client) naivePoint(vq []int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "naive", Where: pointWhere(vq, -1, 0, 0)})
}

// naiveMask is the NAIVE value-masked weight at a QI point.
func (c *client) naiveMask(vq []int32, codes []int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "naive", Where: pointWhere(vq, -1, 0, 0), Sensitive: codes})
}

// countMask is the PG-inverted COUNT estimate at a QI point under a
// sensitive mask.
func (c *client) countMask(vq []int32, codes []int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "count", Where: pointWhere(vq, -1, 0, 0), Sensitive: codes})
}

// sumPoint is the perturbation-inverted SUM of the identity sensitive value
// at a QI point.
func (c *client) sumPoint(vq []int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "sum", Where: pointWhere(vq, -1, 0, 0)})
}

// naiveSegment is the NAIVE weight over the segment dim j ∈ [lo, hi] with
// every other dimension pinned to vq.
func (c *client) naiveSegment(vq []int32, j int, lo, hi int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "naive", Where: pointWhere(vq, j, lo, hi)})
}

// sumSegment is the SUM counterpart of naiveSegment.
func (c *client) sumSegment(vq []int32, j int, lo, hi int32) (float64, error) {
	return c.query(serve.QueryRequest{Op: "sum", Where: pointWhere(vq, j, lo, hi)})
}
