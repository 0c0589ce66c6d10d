package attackfleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// runShardedFleet runs a small self-served sharded fleet at GOMAXPROCS
// procs.
func runShardedFleet(t *testing.T, algorithm string, shards, procs int) *Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := Run(Config{
		N: 1200, Seed: 7, K: 5, P: 0.3, Algorithm: algorithm, Shards: shards,
		Victims: 6, Fractions: []float64{0, 0.5, 1},
	})
	if err != nil {
		t.Fatalf("sharded fleet %s/S=%d: %v", algorithm, shards, err)
	}
	return rep
}

// TestFleetSharded attacks a sharded release through its coordinator for
// every Phase-2 algorithm: per-shard reconstruction must stay inside the
// Theorem 1–3 bounds (zero violations), the blind probe must agree with the
// aware replay, and the report must not depend on GOMAXPROCS.
func TestFleetSharded(t *testing.T) {
	for _, algorithm := range []string{"kd", "tds", "full-domain"} {
		t.Run(algorithm, func(t *testing.T) {
			var baseline []byte
			for _, procs := range []int{1, 5} {
				rep := runShardedFleet(t, algorithm, 2, procs)
				if rep.Violations != 0 {
					t.Fatalf("%d bound violations at GOMAXPROCS=%d", rep.Violations, procs)
				}
				if rep.Shards != 2 {
					t.Fatalf("report says %d shards", rep.Shards)
				}
				for _, m := range rep.Modes {
					if m.Mode == "probe" && m.AgreeWithAware != rep.Victims {
						t.Fatalf("probe agrees on %d/%d victims at GOMAXPROCS=%d",
							m.AgreeWithAware, rep.Victims, procs)
					}
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = js
				} else if !bytes.Equal(baseline, js) {
					t.Fatalf("report at GOMAXPROCS=%d differs from GOMAXPROCS=1:\n%s\nvs\n%s", procs, js, baseline)
				}
			}
		})
	}
}

// serveShardedRelease publishes a sharded SAL release and stands up the
// full deployment — shard servers plus coordinator — the way pgserve does
// in cmd's end-to-end test, returning the coordinator's base URL.
func serveShardedRelease(t *testing.T, n, shards int, seed int64, k int, p float64) string {
	t.Helper()
	d, err := sal.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := pg.PublishSharded(d, sal.Hierarchies(d.Schema), pg.Config{
		K: k, P: p, Algorithm: pg.KD, Seed: seed,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	man := &snapshot.Manifest{
		K: k, P: p, Algorithm: "kd", Seed: seed, SourceRows: n,
		Shards: make([]snapshot.ShardEntry, shards),
	}
	urls := make([]string, shards)
	for s, pub := range pubs {
		man.Shards[s] = snapshot.ShardEntry{
			Path: fmt.Sprintf("inproc-%02d.pgsnap", s), Rows: pub.Len(),
			SourceRows: (n + shards - 1 - s) / shards,
		}
		ix, err := query.NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := pub.Metadata(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Index: ix, Meta: meta, MaxInFlight: 64})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hs.Close() })
		urls[s] = "http://" + hs.Addr
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{Manifest: man, ShardURLs: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	hs, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return "http://" + hs.Addr
}

// TestFleetAdoptsShardCount points the fleet at an external coordinator
// with Shards unset: the shard count must be adopted from /v1/metadata, and
// the run must be byte-identical to one with the count given explicitly and
// to a self-served run of the same release.
func TestFleetAdoptsShardCount(t *testing.T) {
	base := serveShardedRelease(t, 1200, 2, 7, 5, 0.3)
	cfg := Config{
		BaseURL: base, N: 1200, Seed: 7,
		Victims: 6, Fractions: []float64{0, 0.5, 1},
	}
	adopted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Shards != 2 {
		t.Fatalf("adopted %d shards, coordinator serves 2", adopted.Shards)
	}
	cfg.Shards = 2
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(adopted)
	je, _ := json.Marshal(explicit)
	if !bytes.Equal(ja, je) {
		t.Fatalf("adopted and explicit runs differ:\n%s\nvs\n%s", ja, je)
	}
	self := runShardedFleet(t, "kd", 2, 4)
	js, _ := json.Marshal(self)
	if !bytes.Equal(ja, js) {
		t.Fatalf("external and self-served runs differ:\n%s\nvs\n%s", ja, js)
	}
}

// TestFleetShardConfigValidation pins the config cross-checks: a shard
// count that contradicts the served release, and a negative one, are both
// refused.
func TestFleetShardConfigValidation(t *testing.T) {
	base, shutdown := serveSnapshot(t, 1200, 7, 5, 0.3, "kd")
	defer shutdown()
	_, err := Run(Config{
		BaseURL: base, N: 1200, Seed: 7, Shards: 2,
		Victims: 2, Fractions: []float64{0},
	})
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("sharded config against an unsharded release: %v", err)
	}

	_, err = Run(Config{N: 1200, Seed: 7, Shards: -1})
	if err == nil {
		t.Fatal("negative shard count accepted")
	}
}
