package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/query"
	"pgpub/internal/snapshot"
)

// mustLedger parses an inline budgets file.
func mustLedger(t *testing.T, budgets string) *dp.Ledger {
	t.Helper()
	l, err := dp.ParseBudgets(strings.NewReader(budgets))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// dpPost is post with an X-API-Key header, returning the response headers
// too (the DP tests assert on X-PG-Release).
func dpPost(t *testing.T, h http.Handler, path, apiKey string, body, out any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code, w.Result().Header
}

func fullQuery(schema *dataset.Schema) query.CountQuery {
	q := query.CountQuery{QI: make([]query.Range, schema.D())}
	for j, a := range schema.QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	return q
}

// TestDPServedMatchesMechanism is the unit-level offline-equivalence anchor:
// a served DP answer must equal the exact engine answer plus the noise an
// offline holder of (seed, CRC, API key, QueryKey) derives — bit for bit.
// Repeats are byte-identical (no averaging attack), a different tenant or a
// different query draws different noise, and the compose pair is withheld.
func TestDPServedMatchesMechanism(t *testing.T) {
	ix, _ := hospitalIndex(t)
	const seed, crc = int64(42), uint32(0xDEADBEEF)
	l := mustLedger(t, "alice 100 0.5\nbob 100 0.5")
	s := newTestServer(t, Config{Index: ix, CRC: crc, DP: &DPConfig{Ledger: l, Seed: seed}})
	h := s.Handler()
	schema := ix.Schema()
	m := dp.Mechanism{Seed: seed, CRC: crc}

	cq := fullQuery(schema)
	cq.QI[0].Hi = cq.QI[0].Hi / 2 // restrict one dim so the key is non-trivial
	body := wireQuery("count", cq)

	var first QueryResponse
	code, hdr := dpPost(t, h, "/v1/query", "alice", body, &first)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if got := hdr.Get("X-PG-Release"); got != fmt.Sprintf("%08x", crc) {
		t.Errorf("X-PG-Release = %q", got)
	}

	exact, err := ix.Count(cq)
	if err != nil {
		t.Fatal(err)
	}
	want := exact + m.Noise("alice", QueryKey(schema, "count", cq, nil), 0, 1/0.5)
	if first.Estimate != want {
		t.Errorf("served %v, offline mechanism says %v (exact %v)", first.Estimate, want, exact)
	}
	if first.Estimate == exact {
		t.Errorf("DP answer equals the exact answer — no noise was added")
	}
	if first.DP == nil || first.DP.Epsilon != 0.5 || first.DP.Remaining != 99.5 {
		t.Errorf("DP accounting = %+v, want ε=0.5 remaining=99.5", first.DP)
	}

	var again QueryResponse
	if code, _ = dpPost(t, h, "/v1/query", "alice", body, &again); code != http.StatusOK {
		t.Fatalf("repeat: HTTP %d", code)
	}
	if again.Estimate != first.Estimate {
		t.Errorf("repeating the query re-drew the noise: %v then %v", first.Estimate, again.Estimate)
	}

	var other QueryResponse
	if code, _ = dpPost(t, h, "/v1/query", "bob", body, &other); code != http.StatusOK {
		t.Fatalf("bob: HTTP %d", code)
	}
	if other.Estimate == first.Estimate {
		t.Errorf("two tenants drew identical noise")
	}

	// sum/avg withhold the compose pair and follow the composition arithmetic.
	sumBody := wireQuery("sum", cq)
	var sumResp QueryResponse
	if code, _ = dpPost(t, h, "/v1/query", "alice", sumBody, &sumResp); code != http.StatusOK {
		t.Fatalf("sum: HTTP %d", code)
	}
	if sumResp.Sum != nil || sumResp.Weight != nil {
		t.Errorf("DP sum response leaks the compose pair")
	}
	sens := float64(schema.SensitiveDomain() - 1)
	esum, eweight, err := ix.AvgParts(cq, valueFn(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := esum + m.Noise("alice", QueryKey(schema, "sum", cq, nil), 0, sens/0.5); sumResp.Estimate != want {
		t.Errorf("sum: served %v, mechanism says %v", sumResp.Estimate, want)
	}

	avgBody := wireQuery("avg", cq)
	var avgResp QueryResponse
	if code, _ = dpPost(t, h, "/v1/query", "alice", avgBody, &avgResp); code != http.StatusOK {
		t.Fatalf("avg: HTTP %d", code)
	}
	akey := QueryKey(schema, "avg", cq, nil)
	half := 0.5 / 2
	nsum := esum + m.Noise("alice", akey, 0, sens/half)
	nweight := eweight + m.Noise("alice", akey, 1, 1/half)
	if want := nsum / nweight; avgResp.Estimate != want {
		t.Errorf("avg: served %v, ε/2-composition says %v", avgResp.Estimate, want)
	}
}

// TestDPAuthAndBudgetEndpoint covers the access-control shape: 401 without
// a key, 403 for an unprovisioned key, and the authenticated budget view.
func TestDPAuthAndBudgetEndpoint(t *testing.T) {
	ix, _ := hospitalIndex(t)
	l := mustLedger(t, "alice 2 0.5")
	s := newTestServer(t, Config{Index: ix, DP: &DPConfig{Ledger: l, Seed: 1}})
	h := s.Handler()
	body := wireQuery("count", fullQuery(ix.Schema()))

	if code, _ := dpPost(t, h, "/v1/query", "", body, nil); code != http.StatusUnauthorized {
		t.Errorf("no key: HTTP %d, want 401", code)
	}
	if code, _ := dpPost(t, h, "/v1/query", "mallory", body, nil); code != http.StatusForbidden {
		t.Errorf("unknown key: HTTP %d, want 403", code)
	}
	if code, _ := dpPost(t, h, "/v1/query", "alice", body, nil); code != http.StatusOK {
		t.Errorf("alice: HTTP %d, want 200", code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/dp/budget", nil)
	req.Header.Set("X-API-Key", "alice")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var st BudgetStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK {
		t.Fatalf("budget endpoint: HTTP %d, %v", w.Code, err)
	}
	if st.Key != "alice" || st.Total != 2 || st.PerQuery != 0.5 || st.Spent != 0.5 || st.Remaining != 1.5 {
		t.Errorf("budget status = %+v", st)
	}

	// The metadata document advertises the mode.
	var md MetadataResponse
	if code := post(t, h, "/v1/metadata", nil, &md); code != http.StatusOK {
		t.Fatal("metadata failed")
	}
	if md.DP == nil || md.DP.Mechanism != "laplace" || md.DP.Keys != 1 {
		t.Errorf("metadata DP advert = %+v", md.DP)
	}
}

// TestDPExhaustion exhausts one tenant: the 429 carries Retry-After, the
// account never overshoots, and the other tenant keeps answering.
func TestDPExhaustion(t *testing.T) {
	ix, _ := hospitalIndex(t)
	l := mustLedger(t, "alice 1 0.5\nbob 100 0.5")
	s := newTestServer(t, Config{Index: ix, DP: &DPConfig{Ledger: l, Seed: 1}})
	h := s.Handler()
	body := wireQuery("count", fullQuery(ix.Schema()))

	var resp QueryResponse
	for i := 1; i <= 2; i++ {
		if code, _ := dpPost(t, h, "/v1/query", "alice", body, &resp); code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, code)
		}
	}
	if resp.DP.Remaining != 0 {
		t.Errorf("remaining %v after the budget is spent, want 0", resp.DP.Remaining)
	}
	code, hdr := dpPost(t, h, "/v1/query", "alice", body, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted key got HTTP %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if spent := l.Key("alice").Spent(); spent != 1 {
		t.Errorf("alice spent %v, want exactly 1 — the refused query must not charge", spent)
	}
	if code, _ := dpPost(t, h, "/v1/query", "bob", body, nil); code != http.StatusOK {
		t.Errorf("bob blocked by alice's exhaustion: HTTP %d", code)
	}
}

// TestDPBatchMatchesSingles pins the batch contract: each batched estimate
// is noised under its own query's key, so it equals the same query answered
// alone, and the batch charges n·ε_per_query in one piece.
func TestDPBatchMatchesSingles(t *testing.T) {
	ix, _ := hospitalIndex(t)
	l := mustLedger(t, "alice 100 0.25")
	s := newTestServer(t, Config{Index: ix, DP: &DPConfig{Ledger: l, Seed: 9}})
	h := s.Handler()
	schema := ix.Schema()

	var queries []QueryRequest
	var singles []float64
	for i := 0; i < 3; i++ {
		cq := fullQuery(schema)
		cq.QI[i%schema.D()].Lo = int32(i)
		body := wireQuery("count", cq)
		queries = append(queries, body)
		var resp QueryResponse
		if code, _ := dpPost(t, h, "/v1/query", "alice", body, &resp); code != http.StatusOK {
			t.Fatalf("single %d: HTTP %d", i, code)
		}
		singles = append(singles, resp.Estimate)
	}

	var batch BatchResponse
	code, _ := dpPost(t, h, "/v1/batch", "alice", BatchRequest{Queries: queries}, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if batch.DP == nil || batch.DP.Epsilon != 0.75 {
		t.Errorf("batch DP = %+v, want ε=0.75 (3 × 0.25)", batch.DP)
	}
	for i, est := range batch.Estimates {
		if est != singles[i] {
			t.Errorf("batched query %d answered %v, alone it answered %v", i, est, singles[i])
		}
	}
	// 3 singles + one 3-query batch = 6 queries' worth of ε.
	if spent := l.Key("alice").Spent(); spent != 1.5 {
		t.Errorf("spent %v, want 1.5", spent)
	}
}

// TestDPBudgetSurvivesReload hot-swaps the serving release under a DP
// server: spent ε carries over (no refund), while the noise re-keys with the
// new release's CRC.
func TestDPBudgetSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	paths, counts := buildServeChain(t, dir, 2, 17)
	live := filepath.Join(dir, "live.pgsnap")
	replaceFile(t, live, paths[0])
	src := SnapshotSource(live, false)
	data, err := src()
	if err != nil {
		t.Fatal(err)
	}
	const seed = int64(5)
	l := mustLedger(t, "alice 100 0.5")
	s := newTestServer(t, Config{
		Index: data.Index, Meta: data.Meta, CRC: data.CRC, Chain: data.Chain,
		Source: src, DP: &DPConfig{Ledger: l, Seed: seed},
	})
	h := s.Handler()
	schema := data.Index.Schema()
	body := wireQuery("count", fullQuery(schema))
	key := QueryKey(schema, "count", fullQuery(schema), nil)

	crc0, err := snapshot.HeaderCRC(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	crc1, err := snapshot.HeaderCRC(paths[1])
	if err != nil {
		t.Fatal(err)
	}

	var before QueryResponse
	code, hdr := dpPost(t, h, "/v1/query", "alice", body, &before)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if got := hdr.Get("X-PG-Release"); got != fmt.Sprintf("%08x", crc0) {
		t.Errorf("X-PG-Release = %q, want %08x", got, crc0)
	}
	if want := counts[0] + (dp.Mechanism{Seed: seed, CRC: crc0}).Noise("alice", key, 0, 1/0.5); before.Estimate != want {
		t.Errorf("release 0: served %v, mechanism says %v", before.Estimate, want)
	}

	replaceFile(t, live, paths[1])
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	var after QueryResponse
	code, hdr = dpPost(t, h, "/v1/query", "alice", body, &after)
	if code != http.StatusOK {
		t.Fatalf("after reload: HTTP %d", code)
	}
	if got := hdr.Get("X-PG-Release"); got != fmt.Sprintf("%08x", crc1) {
		t.Errorf("after reload X-PG-Release = %q, want %08x", got, crc1)
	}
	if want := counts[1] + (dp.Mechanism{Seed: seed, CRC: crc1}).Noise("alice", key, 0, 1/0.5); after.Estimate != want {
		t.Errorf("release 1: served %v, mechanism says %v — the noise did not re-key", after.Estimate, want)
	}
	if spent := l.Key("alice").Spent(); spent != 1 {
		t.Errorf("spent %v after two queries across a reload, want 1 — ε must survive the swap", spent)
	}
}

// TestCoordinatorDP runs the DP mode at a fan-out coordinator: the budget is
// charged once per client query (never per shard), the merged answer equals
// the in-process group answer plus offline-derivable noise, pinned answers
// key apart from merged ones, and a batch charges n·ε and answers each
// query as it answers alone.
func TestCoordinatorDP(t *testing.T) {
	const (
		seed = int64(99)
		crc  = uint32(0xABCD1234)
		per  = 0.5
	)
	l := mustLedger(t, "alice 100 0.5")
	f := newCoordFixture(t, 2000, 3, func(cc *CoordConfig) {
		cc.DP = &DPConfig{Ledger: l, Seed: seed}
		cc.CRC = crc
	})
	h := f.coord.Handler()
	schema := f.pubs[0].Schema
	m := dp.Mechanism{Seed: seed, CRC: crc}

	cq := fullQuery(schema)
	body := wireQuery("count", cq)

	var resp QueryResponse
	code, hdr := dpPost(t, h, "/v1/query", "alice", body, &resp)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if got := hdr.Get("X-PG-Release"); got != fmt.Sprintf("%08x", crc) {
		t.Errorf("X-PG-Release = %q", got)
	}
	exact, err := f.group.Count(cq)
	if err != nil {
		t.Fatal(err)
	}
	if want := exact + m.Noise("alice", QueryKey(schema, "count", cq, nil), 0, 1/per); resp.Estimate != want {
		t.Errorf("merged count: served %v, mechanism says %v (exact %v)", resp.Estimate, want, exact)
	}
	if resp.Source != "merged" {
		t.Errorf("source %q", resp.Source)
	}
	// One client query across 3 shards charges once.
	if spent := l.Key("alice").Spent(); spent != per {
		t.Errorf("spent %v after one fanned-out query, want %v — ε must be charged at the coordinator, not per shard", spent, per)
	}

	// avg fans out as sum; the coordinator noises Σ sums and Σ weights under
	// the client's avg key with the ε/2 split.
	var avgResp QueryResponse
	if code, _ := dpPost(t, h, "/v1/query", "alice", wireQuery("avg", cq), &avgResp); code != http.StatusOK {
		t.Fatalf("avg: HTTP %d", code)
	}
	esum, eweight, err := f.group.AvgParts(cq, func(code int32) float64 { return float64(code) })
	if err != nil {
		t.Fatal(err)
	}
	akey := QueryKey(schema, "avg", cq, nil)
	sens := float64(schema.SensitiveDomain() - 1)
	half := per / 2
	nsum := esum + m.Noise("alice", akey, 0, sens/half)
	nweight := eweight + m.Noise("alice", akey, 1, 1/half)
	if want := nsum / nweight; avgResp.Estimate != want {
		t.Errorf("merged avg: served %v, composition says %v", avgResp.Estimate, want)
	}
	if avgResp.Sum != nil || avgResp.Weight != nil {
		t.Errorf("DP avg response leaks the compose pair")
	}

	// A pinned answer draws under the shard-prefixed key.
	pin := 1
	pinned := body
	pinned.Shard = &pin
	var pinResp QueryResponse
	if code, _ := dpPost(t, h, "/v1/query", "alice", pinned, &pinResp); code != http.StatusOK {
		t.Fatalf("pinned: HTTP %d", code)
	}
	ix1, err := query.NewIndex(f.pubs[1])
	if err != nil {
		t.Fatal(err)
	}
	pexact, err := ix1.Count(cq)
	if err != nil {
		t.Fatal(err)
	}
	pkey := "shard:1|" + QueryKey(schema, "count", cq, nil)
	if want := pexact + m.Noise("alice", pkey, 0, 1/per); pinResp.Estimate != want {
		t.Errorf("pinned count: served %v, mechanism says %v", pinResp.Estimate, want)
	}

	// A batch goes through the same charging path as at a server: n·ε, each
	// estimate noised under its own query's key, so it equals the merged
	// answers to the same queries sent singly.
	var queries []QueryRequest
	var singles []float64
	for i := 0; i < 3; i++ {
		q := fullQuery(schema)
		q.QI[i%schema.D()].Hi = 0
		queries = append(queries, wireQuery("count", q))
		var resp QueryResponse
		if code, _ := dpPost(t, h, "/v1/query", "alice", queries[i], &resp); code != http.StatusOK {
			t.Fatalf("single %d: HTTP %d", i, code)
		}
		singles = append(singles, resp.Estimate)
	}
	before := l.Key("alice").Spent()
	var batch BatchResponse
	if code, _ := dpPost(t, h, "/v1/batch", "alice", BatchRequest{Queries: queries}, &batch); code != http.StatusOK {
		t.Fatalf("DP batch at the coordinator: HTTP %d", code)
	}
	if batch.DP == nil || batch.DP.Epsilon != 3*per {
		t.Errorf("batch DP = %+v, want ε=%v", batch.DP, 3*per)
	}
	if spent := l.Key("alice").Spent() - before; spent != 3*per {
		t.Errorf("batch spent %v, want n·ε = %v", spent, 3*per)
	}
	for i, est := range batch.Estimates {
		if est != singles[i] {
			t.Errorf("batched query %d answered %v, alone it answered %v", i, est, singles[i])
		}
	}

	var md MetadataResponse
	if code := post(t, h, "/v1/metadata", nil, &md); code != http.StatusOK {
		t.Fatal("metadata failed")
	}
	if md.DP == nil || md.DP.Mechanism != "laplace" {
		t.Errorf("coordinator metadata DP advert = %+v", md.DP)
	}
}

// TestCoordinatorRejectsDPShards pins the exactly-once noising rule: a
// coordinator in any mode refuses to start over a shard that is itself
// noising answers.
func TestCoordinatorRejectsDPShards(t *testing.T) {
	md := fakeShardMeta(10)
	md.DP = &DPMetadata{Mechanism: "laplace", Keys: 1}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/metadata", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, md)
	})
	hs, err := serveHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })

	c, err := NewCoordinator(CoordConfig{Manifest: fakeManifest(1), ShardURLs: []string{"http://" + hs.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = c.Start(ctx)
	if err == nil || !strings.Contains(err.Error(), "DP mode") {
		t.Fatalf("Start over a DP shard: %v, want a DP-mode rejection", err)
	}
}
