package serve

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/responses.golden from the code under test")

// TestResponsesGolden pins whole responses: status, the Content-Type,
// X-PG-Release and Retry-After headers and the body bytes of every answer
// and refusal a JSON request can get, and the reply frame of every shard
// frame, on an exact server and a DP server with a pinned seed. Requests run
// in order against shared servers, so the cache hits and the DP budgets'
// remaining ε are part of what is pinned. Rewrite the file with
// -update-golden only when a served byte is meant to change.
func TestResponsesGolden(t *testing.T) {
	ix, _ := hospitalIndex(t)
	schema := ix.Schema()
	const crc = uint32(0xDEADBEEF)
	exact := newTestServer(t, Config{Index: ix, CRC: crc, MaxInFlight: 2})
	dpSrv := newTestServer(t, Config{Index: ix, CRC: crc, MaxInFlight: 2, DP: &DPConfig{
		Ledger: mustLedger(t, "alice 1000 0.5\nbob 0.5 0.5"), Seed: 42,
	}})
	gate := make(chan struct{})
	defer close(gate)
	slow := newFakeServer(t, &fakeAnswerer{gate: gate}, Config{RequestTimeout: time.Millisecond})
	empty := newFakeServer(t, &emptyRegions{}, Config{})

	var out bytes.Buffer
	record := func(name string, w *httptest.ResponseRecorder) {
		h := w.Result().Header
		fmt.Fprintf(&out, "== %s\n%d\nContent-Type: %s\nX-PG-Release: %s\nRetry-After: %s\n%q\n\n",
			name, w.Code, h.Get("Content-Type"), h.Get("X-PG-Release"), h.Get("Retry-After"), w.Body.Bytes())
	}
	do := func(name string, s *Server, method, path, key, body string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		record(name, w)
	}
	saturated := func(s *Server, fn func()) {
		for len(s.sem) < cap(s.sem) {
			s.sem <- struct{}{}
		}
		fn()
		for len(s.sem) > 0 {
			<-s.sem
		}
	}
	frame := func(name string, s *Server, kind byte, body []byte) {
		var fw frameWriter
		fw.reset()
		s.serveFrame(&fw, httptest.NewRequest(http.MethodGet, streamPath, nil), kind, body)
		fmt.Fprintf(&out, "== %s\n%q\n\n", name, fw.frame())
	}

	const (
		count   = `{"op":"count","where":[{"attr":"Age","lo":"30","hi":"60"}]}`
		naive   = `{"op":"naive","where":[{"dim":0,"lo":10,"hi":40},{"attr":"Gender","lo":"F","hi":"F"}]}`
		sum     = `{"op":"sum","where":[{"attr":"Zipcode","lo":"20","hi":"60"}]}`
		sumVals = `{"op":"sum","where":[{"attr":"Zipcode","lo":"20","hi":"60"}],"values":[1.5,2,3,4,5,6,7,8,9,10]}`
		avg     = `{"op":"avg","where":[{"attr":"Age","lo":"20","hi":"60"}]}`
		masked  = `{"where":[{"attr":"Age","lo":"20","hi":"70"}],"sensitive":[1,2,7]}`
		// An AVG whose noised weight lands at or below zero under the DP
		// server's seed and alice's key.
		avgNoised = `{"op":"avg","where":[{"attr":"Age","lo":"25","hi":"25"}]}`
		batch     = `{"queries":[` + count + `,{"where":[{"dim":2,"lo":0,"hi":30}]},{}]}`
	)
	for _, c := range []struct{ name, body string }{
		{"count", count}, {"naive", naive}, {"sum", sum}, {"sum values", sumVals},
		{"avg", avg}, {"masked", masked}, {"count again (cache)", count},
	} {
		do("exact "+c.name, exact, http.MethodPost, "/v1/query", "", c.body)
	}
	do("exact batch", exact, http.MethodPost, "/v1/batch", "", batch)
	do("exact batch again", exact, http.MethodPost, "/v1/batch", "", batch)
	do("exact empty batch", exact, http.MethodPost, "/v1/batch", "", `{"queries":[]}`)
	do("exact 400 unknown attribute", exact, http.MethodPost, "/v1/query", "", `{"where":[{"attr":"Height"}]}`)
	do("exact 400 bad json", exact, http.MethodPost, "/v1/query", "", `{"op":`)
	do("exact 400 shard pin", exact, http.MethodPost, "/v1/query", "", `{"shard":0}`)
	do("exact 400 batch of sums", exact, http.MethodPost, "/v1/batch", "", `{"queries":[`+sum+`]}`)
	do("exact 400 batch pin", exact, http.MethodPost, "/v1/batch", "", `{"queries":[{"shard":1}]}`)
	do("exact 405 query", exact, http.MethodGet, "/v1/query", "", "")
	do("exact 405 batch", exact, http.MethodGet, "/v1/batch", "", "")
	for _, path := range []string{"/v1/query", "/v1/batch"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(count))
		req.ContentLength = maxBodyBytes + 1
		w := httptest.NewRecorder()
		exact.Handler().ServeHTTP(w, req)
		record("exact 413 "+path, w)
	}
	saturated(exact, func() {
		do("exact 429 shed query", exact, http.MethodPost, "/v1/query", "", naive)
		do("exact 429 shed batch", exact, http.MethodPost, "/v1/batch", "", batch)
	})
	do("slow 504 query", slow, http.MethodPost, "/v1/query", "", count)
	do("slow 504 batch", slow, http.MethodPost, "/v1/batch", "", batch)
	do("empty avg", empty, http.MethodPost, "/v1/query", "", avg)
	do("empty sum", empty, http.MethodPost, "/v1/query", "", sum)

	for _, c := range []struct{ name, body string }{
		{"count", count}, {"naive", naive}, {"sum", sum}, {"sum values", sumVals},
		{"avg", avg}, {"masked", masked}, {"count again (cache)", count},
		{"avg empty under noise", avgNoised},
	} {
		do("dp "+c.name, dpSrv, http.MethodPost, "/v1/query", "alice", c.body)
	}
	do("dp batch", dpSrv, http.MethodPost, "/v1/batch", "alice", batch)
	do("dp 401 query", dpSrv, http.MethodPost, "/v1/query", "", count)
	do("dp 401 batch", dpSrv, http.MethodPost, "/v1/batch", "", batch)
	do("dp 403", dpSrv, http.MethodPost, "/v1/query", "mallory", count)
	do("dp bob's one query", dpSrv, http.MethodPost, "/v1/query", "bob", count)
	do("dp 429 budget query", dpSrv, http.MethodPost, "/v1/query", "bob", count)
	do("dp 429 budget batch", dpSrv, http.MethodPost, "/v1/batch", "bob", batch)
	do("dp 400 bad query", dpSrv, http.MethodPost, "/v1/query", "alice", `{"op":"median"}`)
	saturated(dpSrv, func() {
		do("dp 429 shed", dpSrv, http.MethodPost, "/v1/query", "alice", count)
	})
	{
		w := httptest.NewRecorder()
		dpSrv.Handler().ServeHTTP(w, upgradeRequest())
		record("dp 400 shard stream", w)
	}

	q := func(op string, ranges ...int32) []byte {
		cq := fullQuery(schema)
		for i := 0; i+2 < len(ranges); i += 3 {
			cq.QI[ranges[i]] = query.Range{Lo: ranges[i+1], Hi: ranges[i+2]}
		}
		return appendShardQuery(nil, schema, op, cq, nil)
	}
	values := []float64{1.5, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	maskedQ := fullQuery(schema)
	maskedQ.QI[0] = query.Range{Lo: 0, Hi: 50}
	maskedQ.Sensitive = make([]bool, schema.SensitiveDomain())
	maskedQ.Sensitive[1], maskedQ.Sensitive[7] = true, true
	batchQs := []query.CountQuery{fullQuery(schema), fullQuery(schema)}
	batchQs[1].QI[2] = query.Range{Lo: 0, Hi: 30}
	frame("frame count", exact, frameQuery, q("count", 0, 10, 40))
	frame("frame naive", exact, frameQuery, q("naive", 0, 10, 40, 1, 1, 1))
	frame("frame sum", exact, frameQuery, q("sum", 2, 10, 50))
	frame("frame sum values", exact, frameQuery,
		appendShardQuery(nil, schema, "sum", zipQuery(schema, 10, 50), values))
	frame("frame avg", exact, frameQuery, q("avg", 0, 0, 40))
	frame("frame masked", exact, frameQuery, appendShardQuery(nil, schema, "count", maskedQ, nil))
	frame("frame count again (cache)", exact, frameQuery, q("count", 0, 10, 40))
	frame("frame batch", exact, frameBatch, appendShardBatch(nil, schema, batchQs))
	frame("frame empty batch", exact, frameBatch, appendShardBatch(nil, schema, nil))
	frame("frame 400 truncated", exact, frameQuery, []byte{0, 1, 0})
	frame("frame 400 count values", exact, frameQuery,
		appendShardQuery(nil, schema, "count", fullQuery(schema), values))
	frame("frame 400 batch of sums", exact, frameBatch, append([]byte{1}, q("sum")...))
	frame("frame 400 unknown kind", exact, 7, nil)
	saturated(exact, func() {
		frame("frame 429 shed query", exact, frameQuery, q("count", 0, 1, 2))
		frame("frame 429 shed batch", exact, frameBatch, appendShardBatch(nil, schema, batchQs))
	})
	frame("slow frame 504 query", slow, frameQuery, q("count", 0, 3, 3))
	frame("slow frame 504 batch", slow, frameBatch, appendShardBatch(nil, schema, batchQs))
	frame("empty frame avg", empty, frameQuery, q("avg", 0, 0, 40))
	frame("empty frame sum", empty, frameQuery, q("sum", 0, 0, 40))

	path := filepath.Join("testdata", "responses.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	got, wantRecs := strings.Split(out.String(), "\n\n"), strings.Split(string(want), "\n\n")
	for i := 0; i < len(got) || i < len(wantRecs); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantRecs) {
			w = wantRecs[i]
		}
		if g != w {
			t.Fatalf("response %d differs from %s:\ngot:\n%s\nwant:\n%s", i, path, g, w)
		}
	}
}

// emptyRegions answers every region as empty: weight 0.
type emptyRegions struct{ fakeAnswerer }

func (*emptyRegions) AvgParts(context.Context, query.CountQuery, []float64) (float64, float64, error) {
	return 0, 0, nil
}

// zipQuery is the full-domain query with Zipcode restricted to [lo, hi].
func zipQuery(schema *dataset.Schema, lo, hi int32) query.CountQuery {
	q := fullQuery(schema)
	q.QI[2] = query.Range{Lo: lo, Hi: hi}
	return q
}
