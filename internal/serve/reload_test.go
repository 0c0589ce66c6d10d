package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/snapshot"
)

// buildServeChain publishes a T-release snapshot chain the way pgpublish
// -base/-delta does and returns the file paths in release order plus each
// release's full-table COUNT answer (computed in-process — the oracle the
// hot-swap test checks served answers against). Every release applies a
// row-churning delta so the releases' answers are pairwise distinct.
func buildServeChain(t *testing.T, dir string, T int, seed int64) (paths []string, counts []float64) {
	t.Helper()
	base, err := sal.Generate(1200, 13)
	if err != nil {
		t.Fatal(err)
	}
	const lambda, rho1 = 0.5, 0.4
	c := pg.NewChain(base, sal.Hierarchies(base.Schema))
	cfg := pg.Config{K: 6, P: 0.3, Seed: seed}
	var parentCRC uint32
	for r := 0; r < T; r++ {
		dl := pg.Delta{}
		if r > 0 {
			for i := 0; i < 30; i++ {
				dl.Deletes = append(dl.Deletes, (i*41+3)%c.Table().Len())
			}
			ins, err := sal.Generate(30+40*r, int64(300+r))
			if err != nil {
				t.Fatal(err)
			}
			ins.Owners = nil
			dl.Inserts = ins
		}
		inserts := 0
		if dl.Inserts != nil {
			inserts = dl.Inserts.Len()
		}
		pub, err := pg.Republish(c, dl, cfg)
		if err != nil {
			t.Fatalf("release %d: %v", r, err)
		}
		meta, err := pub.Metadata(lambda, rho1)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := repub.ChainMetadataFor(r, parentCRC, inserts, len(dl.Deletes), c.Table().Len(),
			pub.P, lambda, pub.K, pub.Schema.SensitiveDomain())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("r%d.pgsnap", r))
		if err := snapshot.SaveRelease(path, pub, meta.Guarantee, chain); err != nil {
			t.Fatal(err)
		}
		if parentCRC, err = snapshot.HeaderCRC(path); err != nil {
			t.Fatal(err)
		}
		ix, err := query.NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		q := query.CountQuery{QI: make([]query.Range, pub.Schema.D())}
		for j, a := range pub.Schema.QI {
			q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
		}
		count, err := ix.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		counts = append(counts, count)
	}
	for i := range counts {
		for j := i + 1; j < len(counts); j++ {
			if counts[i] == counts[j] {
				t.Fatalf("releases %d and %d answer the same full count %v; the oracle cannot tell them apart", i, j, counts[i])
			}
		}
	}
	return paths, counts
}

// replaceFile atomically replaces dst with src's content — what writing the
// next release over the served snapshot path looks like to the server
// (snapshot.Save's own tmp+rename discipline).
func replaceFile(t *testing.T, dst, src string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
}

// newChainServer stands up a Server on the live snapshot path with a reload
// source, the pgserve -snapshot wiring.
func newChainServer(t *testing.T, live string, reg *obs.Registry) *Server {
	t.Helper()
	src := SnapshotSource(live, false)
	data, err := src()
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{
		Index: data.Index, Meta: data.Meta,
		CRC: data.CRC, Chain: data.Chain, Source: src,
		MaxInFlight: 1024, Metrics: reg,
	})
}

// TestReloadHotSwapUnderLoad is the zero-downtime contract, meant for the
// race detector: /v1/query is hammered from many goroutines while the
// server hot-swaps through every release of a chain. Every response must be
// a 200 whose answer is exactly one release's answer — never an error,
// never a blend of two indexes — and after the last swap the server serves
// the final release.
func TestReloadHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	const T = 4
	paths, counts := buildServeChain(t, dir, T, 29)
	live := filepath.Join(dir, "live.pgsnap")
	replaceFile(t, live, paths[0])

	reg := obs.NewRegistry()
	s := newChainServer(t, live, reg)
	h := s.Handler()

	valid := make(map[float64]bool, T)
	for _, v := range counts {
		valid[v] = true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var violations []string
	report := func(format string, args ...any) {
		mu.Lock()
		if len(violations) < 8 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	const hammers = 8
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"op":"count"}`))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					report("query answered HTTP %d: %s", w.Code, w.Body.String())
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					report("undecodable answer %q: %v", w.Body.String(), err)
					return
				}
				if !valid[resp.Estimate] {
					report("answer %v is no release's answer (releases answer %v)", resp.Estimate, counts)
					return
				}
			}
		}()
	}

	for r := 1; r < T; r++ {
		time.Sleep(20 * time.Millisecond)
		replaceFile(t, live, paths[r])
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("reload to release %d: HTTP %d: %s", r, w.Code, w.Body.String())
		}
		var res ReloadResult
		if err := json.Unmarshal(w.Body.Bytes(), &res); err == nil && res.Release != r {
			t.Errorf("reload reported release %d, want %d", res.Release, r)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()
	for _, v := range violations {
		t.Error(v)
	}

	var md MetadataResponse
	if code := post(t, h, "/v1/metadata", struct{}{}, &md); code != http.StatusOK {
		t.Fatalf("metadata: HTTP %d", code)
	}
	if md.Release == nil || md.Release.Release != T-1 {
		t.Fatalf("after the last swap, metadata reports release %v, want %d", md.Release, T-1)
	}
	var resp QueryResponse
	post(t, h, "/v1/query", QueryRequest{}, &resp)
	if resp.Estimate != counts[T-1] {
		t.Fatalf("after the last swap, full count = %v, want release %d's %v", resp.Estimate, T-1, counts[T-1])
	}
	if got := reg.Counter("serve.reload.swapped").Value(); got != T-1 {
		t.Fatalf("serve.reload.swapped = %d, want %d", got, T-1)
	}
	if got := reg.Counter("serve.errors").Value(); got != 0 {
		t.Fatalf("serve.errors = %d during hot-swaps, want 0", got)
	}
	if got := reg.Gauge("serve.release").Value(); got != T-1 {
		t.Fatalf("serve.release gauge = %d, want %d", got, T-1)
	}
}

// TestReloadRejections walks every 409 class: the source still holding the
// serving release, a foreign chain's release, a skipped release, a
// chainless snapshot — and confirms each rejection leaves the serving
// release untouched.
func TestReloadRejections(t *testing.T) {
	dir := t.TempDir()
	paths, counts := buildServeChain(t, dir, 3, 31)
	foreign, _ := buildServeChain(t, t.TempDir(), 2, 77)
	live := filepath.Join(dir, "live.pgsnap")
	replaceFile(t, live, paths[0])

	reg := obs.NewRegistry()
	s := newChainServer(t, live, reg)
	h := s.Handler()

	reload := func() (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	expectReject := func(what, wantSub string) {
		t.Helper()
		code, body := reload()
		if code != http.StatusConflict || !strings.Contains(body, wantSub) {
			t.Fatalf("%s: HTTP %d %q, want 409 mentioning %q", what, code, body, wantSub)
		}
		// The serving release is untouched: release 0 still answers.
		var resp QueryResponse
		if post(t, h, "/v1/query", QueryRequest{}, &resp); resp.Estimate != counts[0] {
			t.Fatalf("%s: serving release disturbed (count %v, want %v)", what, resp.Estimate, counts[0])
		}
	}

	expectReject("source unchanged", "still holds the serving release")
	replaceFile(t, live, foreign[1])
	expectReject("foreign chain", "not a successor")
	replaceFile(t, live, paths[2])
	expectReject("skipped release", "catch up")
	rel, err := snapshot.Load(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.pgsnap")
	if err := snapshot.Save(plain, rel.Pub, rel.Guarantee); err != nil {
		t.Fatal(err)
	}
	replaceFile(t, live, plain)
	expectReject("chainless snapshot", "release-chain block")

	// Catching up one release at a time succeeds.
	for r := 1; r <= 2; r++ {
		replaceFile(t, live, paths[r])
		if code, body := reload(); code != http.StatusOK {
			t.Fatalf("catch-up to release %d: HTTP %d: %s", r, code, body)
		}
	}
	var resp QueryResponse
	post(t, h, "/v1/query", QueryRequest{}, &resp)
	if resp.Estimate != counts[2] {
		t.Fatalf("after catch-up, count = %v, want %v", resp.Estimate, counts[2])
	}
	if got := reg.Counter("serve.reload.rejected").Value(); got != 4 {
		t.Fatalf("serve.reload.rejected = %d, want 4", got)
	}
	if got := reg.Counter("serve.reload.swapped").Value(); got != 2 {
		t.Fatalf("serve.reload.swapped = %d, want 2", got)
	}
}

// TestReloadWithoutSource pins the refusal modes of a server that cannot
// reload: no Source configured (started from a CSV or an in-memory index),
// or a Source but no snapshot identity for the serving release.
func TestReloadWithoutSource(t *testing.T) {
	ix, pub := hospitalIndex(t)
	meta, err := pub.Metadata(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Index: ix, Meta: meta})
	req := httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "no snapshot path") {
		t.Fatalf("reload without a source: HTTP %d %q, want 409 naming the missing source", w.Code, w.Body.String())
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("Reload without a source returned nil error")
	}

	// A Source alone is not enough: without the serving snapshot's CRC the
	// parent link cannot be validated.
	dir := t.TempDir()
	paths, _ := buildServeChain(t, dir, 1, 3)
	s2 := newTestServer(t, Config{Index: ix, Meta: meta, Source: SnapshotSource(paths[0], false)})
	w = httptest.NewRecorder()
	s2.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil))
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "no snapshot identity") {
		t.Fatalf("reload without a serving CRC: HTTP %d %q, want 409", w.Code, w.Body.String())
	}

	// GET is refused: reloading mutates serving state.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/admin/reload", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: HTTP %d, want 405", w.Code)
	}
}

// TestCoordinatorReload covers the coordinator half: no manifest source is
// a 409, a source whose manifest matches the fleet swaps, and a failing
// source is a 500.
func TestCoordinatorReload(t *testing.T) {
	var srcErr error
	var man *snapshot.Manifest
	f := newCoordFixture(t, 1000, 3, func(cc *CoordConfig) {
		man = cc.Manifest
		cc.ManifestSource = func() (*snapshot.Manifest, uint32, error) { return man, 0, srcErr }
	})
	h := f.coord.Handler()

	reload := func() (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	if code, body := reload(); code != http.StatusOK {
		t.Fatalf("reload with a matching manifest: HTTP %d: %s", code, body)
	}
	srcErr = fmt.Errorf("disk gone")
	if code, _ := reload(); code != http.StatusInternalServerError {
		t.Fatalf("reload with a failing source: HTTP %d, want 500", code)
	}
	if got := f.reg.Counter("coord.reload.swapped").Value(); got != 1 {
		t.Fatalf("coord.reload.swapped = %d, want 1", got)
	}
	if got := f.reg.Counter("coord.reload.errors").Value(); got != 1 {
		t.Fatalf("coord.reload.errors = %d, want 1", got)
	}

	bare := newCoordFixture(t, 1000, 2, nil)
	w := httptest.NewRecorder()
	bare.coord.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil))
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "no manifest path") {
		t.Fatalf("coordinator reload without a source: HTTP %d %q, want 409", w.Code, w.Body.String())
	}
}

// TestReloadObservesSwappedIndex pins that a hot-swap keeps the query.*
// instruments live: the server observes every index it installs from
// Source into Config.Metrics, so after a reload the new release's queries
// count in query.answered.* and query.count.latency, and the
// query.index.* gauges report the new release's sizes.
func TestReloadObservesSwappedIndex(t *testing.T) {
	dir := t.TempDir()
	paths, counts := buildServeChain(t, dir, 2, 37)
	live := filepath.Join(dir, "live.pgsnap")
	replaceFile(t, live, paths[0])
	reg := obs.NewRegistry()
	s := newChainServer(t, live, reg)

	replaceFile(t, live, paths[1])
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	answered := func() int64 {
		return reg.Counter("query.answered.grid").Value() +
			reg.Counter("query.answered.exact_reanswer").Value() +
			reg.Counter("query.answered.kd").Value()
	}
	latency := reg.Histogram("query.count.latency", "ns")
	before, beforeLat := answered(), latency.Count()
	var resp QueryResponse
	if post(t, s.Handler(), "/v1/query", QueryRequest{}, &resp); resp.Estimate != counts[1] {
		t.Fatalf("after the swap, count = %v, want release 1's %v", resp.Estimate, counts[1])
	}
	if got := answered(); got != before+1 {
		t.Fatalf("query.answered.* total went %d → %d across one query on the swapped index", before, got)
	}
	if got := latency.Count(); got != beforeLat+1 {
		t.Fatalf("query.count.latency count went %d → %d across one query on the swapped index", beforeLat, got)
	}
	m, err := snapshot.Load(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Gauge("query.index.entries").Value(), int64(len(m.Index.Parts().EntG)); got != want {
		t.Fatalf("query.index.entries = %d, want release 1's %d", got, want)
	}
}

// TestSnapshotSourceDepthsAgree pins that the two depths of SnapshotSource
// — read and verified, or mapped — are one decoder: for every Phase-2
// algorithm they return the same CRC, chain block and metadata, and indexes
// whose answers are bit-identical.
func TestSnapshotSourceDepthsAgree(t *testing.T) {
	d := dataset.Hospital()
	hs := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(d.Schema.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(d.Schema.QI[1].Size()),
		hierarchy.MustInterval(d.Schema.QI[2].Size(), 5, 20),
	}
	value := func(c int32) float64 { return float64(c) }
	chain := &snapshot.ChainMetadata{Release: 1, ParentCRC: 0xfeedface, SourceRows: d.Len(), OddsRatio: 1.5, ComposedDelta: 0.3}
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		t.Run(alg.String(), func(t *testing.T) {
			pub, err := pg.Publish(d, hs, pg.Config{K: 2, P: 0.25, Seed: 7, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			meta, err := pub.Metadata(0.1, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "r.pgsnap")
			if err := snapshot.SaveRelease(path, pub, meta.Guarantee, chain); err != nil {
				t.Fatal(err)
			}
			loaded, err := SnapshotSource(path, false)()
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := SnapshotSource(path, true)()
			if err != nil {
				t.Fatal(err)
			}
			if loaded.CRC != mapped.CRC || !reflect.DeepEqual(loaded.Chain, mapped.Chain) || !reflect.DeepEqual(loaded.Meta, mapped.Meta) {
				t.Fatalf("depths disagree on identity: CRC %08x/%08x, chain %+v/%+v, meta %+v/%+v",
					loaded.CRC, mapped.CRC, loaded.Chain, mapped.Chain, loaded.Meta, mapped.Meta)
			}
			qs, err := query.Workload(pub.Schema, query.WorkloadConfig{
				Queries: 60, QIFraction: 0.5, SensitiveFraction: 0.4, Rng: rand.New(rand.NewSource(5)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				a, errA := loaded.Index.Count(q)
				b, errB := mapped.Index.Count(q)
				if math.Float64bits(a) != math.Float64bits(b) || (errA == nil) != (errB == nil) {
					t.Fatalf("query %d: count %v (%v) read, %v (%v) mapped", i, a, errA, b, errB)
				}
				na, _ := loaded.Index.Naive(q)
				nb, _ := mapped.Index.Naive(q)
				sa, wa, _ := loaded.Index.AvgParts(q, value)
				sb, wb, _ := mapped.Index.AvgParts(q, value)
				if math.Float64bits(na) != math.Float64bits(nb) ||
					math.Float64bits(sa) != math.Float64bits(sb) || math.Float64bits(wa) != math.Float64bits(wb) {
					t.Fatalf("query %d: naive %v / avg parts (%v, %v) read, naive %v / (%v, %v) mapped", i, na, sa, wa, nb, sb, wb)
				}
			}
		})
	}
}

// TestOpenCSV pins the CSV release opener: with a metadata file the
// release serves what the file announces (algorithm, k, p, guarantee) and
// answers like the publication it was written from; a CSV that disagrees
// with its metadata on the tuple count or falls below the announced k is
// refused; without a metadata file the algorithm is unannounced and k is
// the smallest G.
func TestOpenCSV(t *testing.T) {
	d, err := sal.Generate(3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 5, Algorithm: pg.TDS})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pub.Metadata(0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath, metaPath := filepath.Join(dir, "tds.csv"), filepath.Join(dir, "tds.json")
	var csv, meta strings.Builder
	if err := pub.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&meta); err != nil {
		t.Fatal(err)
	}
	write := func(path, body string) string {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write(csvPath, csv.String())
	write(metaPath, meta.String())

	reg := obs.NewRegistry()
	rel, err := OpenCSV(d.Schema, csvPath, metaPath, -1, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rel.Meta, want) || rel.CRC != 0 || rel.Chain != nil {
		t.Fatalf("CSV release metadata %+v (CRC %08x, chain %v), want %+v from the metadata file", rel.Meta, rel.CRC, rel.Chain, want)
	}
	if reg.Histogram("query.index.build", "ns").Count() != 1 {
		t.Fatal("opening a CSV recorded no query.index.build span")
	}
	ix, err := query.NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	q := query.CountQuery{QI: make([]query.Range, d.Schema.D())}
	for j, a := range d.Schema.QI {
		q.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size()-1) / 2}
	}
	got, err := rel.Index.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := ix.Count(q); math.Float64bits(got) != math.Float64bits(exp) {
		t.Fatalf("CSV release counts %v, the publication %v", got, exp)
	}

	// Without a metadata file nothing names the algorithm, and k is the
	// smallest G (TDS groups can all stay above the announced k).
	minG := slices.Min(pub.Columns().G)
	bare, err := OpenCSV(d.Schema, csvPath, "", 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := bare.Meta; m.Algorithm != "" || int64(m.K) != minG || m.P != 0.3 || m.Rows != pub.Len() || m.Guarantee != nil {
		t.Fatalf("CSV release without metadata announces %+v, want no algorithm, k=%d, p=0.3, %d rows", m, minG, pub.Len())
	}

	// Metadata the CSV contradicts, and a missing p, are refused.
	lines := strings.SplitAfter(csv.String(), "\n")
	for name, c := range map[string]struct{ csv, meta string }{
		"row count":              {strings.Join(lines[:len(lines)-2], ""), meta.String()},
		"k above the smallest G": {csv.String(), strings.Replace(meta.String(), `"k": 6`, fmt.Sprintf(`"k": %d`, minG+1), 1)},
	} {
		_, err := OpenCSV(d.Schema, write(filepath.Join(dir, "bad.csv"), c.csv), write(filepath.Join(dir, "bad.json"), c.meta), -1, nil)
		if err == nil || !strings.Contains(err.Error(), "announces") {
			t.Errorf("%s: OpenCSV = %v, want a refusal naming the announced values", name, err)
		}
	}
	if _, err := OpenCSV(d.Schema, csvPath, "", -1, nil); err == nil {
		t.Error("OpenCSV without p or metadata: want error")
	}

	// An explicit p must agree with the metadata's: the same value is
	// accepted, another one refused with both values named.
	if _, err := OpenCSV(d.Schema, csvPath, metaPath, 0.3, nil); err != nil {
		t.Errorf("OpenCSV with the announced p: %v", err)
	}
	if _, err := OpenCSV(d.Schema, csvPath, metaPath, 0.9, nil); err == nil ||
		!strings.Contains(err.Error(), "0.9") || !strings.Contains(err.Error(), "0.3") {
		t.Errorf("OpenCSV with p 0.9 against metadata announcing 0.3 = %v, want a refusal naming both", err)
	}
}
