package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// This file holds the two concurrency primitives the serving layer is built
// on: a sharded LRU result cache and a singleflight group. Both are keyed on
// the canonical query encoding (see QueryKey in serve.go), so two
// syntactically different requests describing the same query share one cache
// slot and one in-flight computation.

// cacheShards fixes the shard count. Sixteen shards keep lock contention
// negligible at the concurrency levels the limiter admits while costing a
// few hundred bytes of overhead.
const cacheShards = 16

// resultCache is a sharded LRU from canonical query keys to answers. Each
// shard holds its own lock, map and recency list; a key's shard is fixed by
// its FNV-1a hash, so capacity bounds hold per shard (total capacity is
// split as evenly as it divides, the shard caps summing to exactly the
// total, and never exceeded).
type resultCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

// answerVal is the cached/coalesced unit of answer: the estimate plus, for
// sum/avg, the compose pair (inverted sum, region weight) the wire exposes
// so coordinators can merge. Caching the triple keeps a cache hit able to
// serve the full response, not just the scalar.
type answerVal struct {
	est    float64
	sum    float64
	weight float64
}

type cacheEntry struct {
	key string
	val answerVal
}

// newResultCache builds a cache holding at most entries results in total.
// entries <= 0 returns nil; a nil *resultCache misses every get and drops
// every put, which is the cache-disabled mode.
func newResultCache(entries int) *resultCache {
	if entries <= 0 {
		return nil
	}
	c := &resultCache{}
	for i := range c.shards {
		// The first entries%cacheShards shards take one entry more; below
		// cacheShards entries the rest hold none.
		per := entries / cacheShards
		if i < entries%cacheShards {
			per++
		}
		c.shards[i] = cacheShard{cap: per, m: make(map[string]*list.Element), ll: list.New()}
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &c.shards[h.Sum64()%cacheShards]
}

// get returns the cached answer for key and refreshes its recency.
func (c *resultCache) get(key string) (answerVal, bool) {
	if c == nil {
		return answerVal{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return answerVal{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put stores an answer, evicting the shard's least-recently-used entry when
// the shard is full; a shard of capacity 0 stores nothing. It reports
// whether an entry was evicted.
func (c *resultCache) put(key string, val answerVal) (evicted bool) {
	if c == nil {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return false
	}
	if s.cap == 0 {
		return false
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheEntry).key)
		evicted = true
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	return evicted
}

// len returns the number of cached entries across all shards.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// flightGroup coalesces concurrent computations of the same key: the first
// caller (the leader) runs fn, every concurrent duplicate blocks until the
// leader finishes and shares its result. Completed calls are forgotten
// immediately — memoization across time is the cache's job, not this one's.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done   chan struct{}
	joined int // callers sharing this computation, leader included
	val    answerVal
	err    error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once among concurrent callers of the same key. The second
// return reports whether this caller shared a leader's result instead of
// computing its own.
func (g *flightGroup) do(key string, fn func() (answerVal, error)) (v answerVal, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.joined++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{}), joined: 1}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// stats reports the in-flight computations and the total callers attached
// to them — a test hook: it is how a test waits until every concurrent
// duplicate has actually joined a leader, rather than racing the leader's
// completion against latecomers still between the cache miss and the join.
func (g *flightGroup) stats() (calls, joined int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.calls {
		calls++
		joined += c.joined
	}
	return calls, joined
}
