package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgpub/internal/obs"
)

// TestSoakDrainUnderAdversarialLoad is the race-focused serving soak: many
// clients push an adversarial query mix — tiny cache (constant eviction),
// heavy duplicates (singleflight leaders and followers), a small admission
// limiter (constant shedding) — and a graceful drain fires mid-run. The
// assertions:
//
//   - no admitted query is dropped: every 200 response carries a complete,
//     decodable body, even for requests in flight when the drain started;
//   - the drain itself completes and leaves no limiter slot occupied
//     (the admission semaphore is empty after Shutdown returns);
//   - the mix really exercised all three mechanisms (evictions, coalesced
//     answers and sheds all observed).
//
// Run it with -race: the interesting failures are cache/singleflight/limiter
// interleavings, not the counts.
func TestSoakDrainUnderAdversarialLoad(t *testing.T) {
	f := &fakeAnswerer{delay: 2 * time.Millisecond}
	reg := obs.NewRegistry()
	var cfg Config
	cfg.Metrics = reg
	cfg.MaxInFlight = 4
	cfg.CacheEntries = cacheShards // one entry per shard: constant eviction
	s := newFakeServer(t, f, cfg)

	hs, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	url := "http://" + hs.Addr + "/v1/query"

	// Pre-marshalled adversarial pool: a few hot duplicates interleaved with
	// a long low-locality tail.
	const poolSize = 64
	pool := make([][]byte, poolSize)
	for i := range pool {
		lo := i
		if i%3 == 0 {
			lo = 1 // hot duplicate: coalesces under concurrency
		}
		body, err := json.Marshal(QueryRequest{
			Where: []WhereClause{{Dim: intp(0), Lo: json.RawMessage(fmt.Sprint(lo)), Hi: json.RawMessage(fmt.Sprint(lo))}},
		})
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = body
	}

	const clients = 8
	var (
		answered, shed, refused atomic.Int64
		truncated               atomic.Int64 // 200s whose body failed to decode: dropped in-flight
		unexpected              atomic.Int64
		firstUnexpected         atomic.Value
	)
	hc := &http.Client{Timeout: 30 * time.Second}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := hc.Post(url, "application/json", bytes.NewReader(pool[(c*7+i)%poolSize]))
				if err != nil {
					// Once the listener is gone every dial fails; requests
					// never admitted were not dropped.
					if strings.Contains(err.Error(), "connection refused") ||
						strings.Contains(err.Error(), "EOF") ||
						strings.Contains(err.Error(), "reset") ||
						strings.Contains(err.Error(), "server closed idle connection") {
						refused.Add(1)
						continue
					}
					unexpected.Add(1)
					firstUnexpected.CompareAndSwap(nil, err.Error())
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var qr QueryResponse
					if json.NewDecoder(resp.Body).Decode(&qr) != nil {
						truncated.Add(1)
					} else {
						answered.Add(1)
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					unexpected.Add(1)
				}
				resp.Body.Close()
			}
		}(c)
	}

	// Let the fleet saturate the limiter, then drain mid-run.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := len(s.sem); got != 0 {
		t.Fatalf("%d limiter slots still occupied after drain", got)
	}
	if n := truncated.Load(); n != 0 {
		t.Fatalf("%d admitted queries returned truncated responses (dropped mid-answer)", n)
	}
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d requests failed in unexpected ways (first: %v)", n, firstUnexpected.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("no queries answered before the drain")
	}
	if shed.Load() == 0 {
		t.Fatal("the limiter never shed: the mix did not overrun admission")
	}
	if reg.Counter("serve.cache.evictions").Value() == 0 {
		t.Fatal("no cache evictions: the mix did not churn the cache")
	}
	if reg.Counter("serve.coalesced").Value() == 0 {
		t.Fatal("no coalesced answers: the mix did not exercise singleflight")
	}
}
