package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"pgpub/internal/query"
)

// streamShard serves h on loopback and returns a coordinator's view of it,
// whose call opens shard streams to it.
func streamShard(t *testing.T, h http.Handler) *coordShard {
	t.Helper()
	hs, err := serveHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	sh, err := newCoordShard(0, "http://"+hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// frameCall sends body as one frame of kind on a shard stream and returns
// the reply's status and body.
func frameCall(t *testing.T, sh *coordShard, kind byte, body []byte) (int, []byte) {
	t.Helper()
	frame := append(requestFrame(kind), body...)
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	status, reply, err := sh.call(context.Background(), frame)
	if err != nil {
		t.Fatal(err)
	}
	return status, reply
}

// TestShardCodecAnswersLikeJSON pins the shard side of the codec: every op,
// and a batch, answered through a shard stream equals the JSON answer to
// the same query bit for bit, and a malformed codec body is a 400 with a
// JSON error, as a malformed JSON body is.
func TestShardCodecAnswersLikeJSON(t *testing.T) {
	ix, _ := hospitalIndex(t)
	h := newTestServer(t, Config{Index: ix}).Handler()
	sh := streamShard(t, h)
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
			status, reply := frameCall(t, sh, frameQuery, appendShardQuery(nil, schema, op, q, vs))
			if status != code {
				t.Fatalf("%s (mask %v): codec status %d %q, JSON HTTP %d", op, mask != nil, status, reply, code)
			}
			if code != http.StatusOK {
				continue // SUM/AVG take no mask
			}
			est, sum, weight, parts, err := decodeQueryReply(reply)
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
	status, reply := frameCall(t, sh, frameBatch, appendShardBatch(nil, schema, qs))
	got := make([]float64, len(qs))
	if err := addEstimates(got, reply); err != nil || status != http.StatusOK {
		t.Fatalf("batch over the codec: status %d: %v", status, err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want.Estimates[i]) {
			t.Fatalf("batch query %d: codec %v, JSON %v", i, got[i], want.Estimates[i])
		}
	}

	for name, tc := range map[string]struct {
		kind byte
		body []byte
	}{
		"truncated":      {frameQuery, []byte{0, 1, 0}},
		"trailing bytes": {frameQuery, append(appendShardQuery(nil, schema, "count", q, nil), 7)},
		"count values":   {frameQuery, appendShardQuery(nil, schema, "count", q, values)},
		"batch of sums":  {frameBatch, append([]byte{1}, appendShardQuery(nil, schema, "sum", q, nil)...)},
		"short batch":    {frameBatch, append([]byte{2}, appendShardQuery(nil, schema, "count", q, nil)...)},
		"unknown kind":   {7, appendShardQuery(nil, schema, "count", q, nil)},
	} {
		status, reply := frameCall(t, sh, tc.kind, tc.body)
		var er errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(reply, &er) != nil || er.Error == "" {
			t.Errorf("%s: status %d %q, want a JSON 400", name, status, reply)
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
	sum, weight := 2.0, 3.0
	reply := appendQueryReply(nil, QueryResponse{Estimate: 1, Sum: &sum, Weight: &weight})
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
