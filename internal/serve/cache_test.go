package serve

import (
	"fmt"
	"testing"
)

// TestResultCacheBound pins the documented capacity: a cache of n entries
// never holds more than n results, whatever n is relative to the shard
// count, and the shard caps add up to exactly n.
func TestResultCacheBound(t *testing.T) {
	for _, n := range []int{1, 4, 15, 16, 4096} {
		c := newResultCache(n)
		total := 0
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total != n {
			t.Errorf("cache of %d: shard caps sum to %d", n, total)
		}
		for i := 0; i < 100; i++ {
			c.put(fmt.Sprintf("key-%d", i), answerVal{est: float64(i)})
			if got := c.len(); got > n {
				t.Fatalf("cache of %d holds %d entries after %d puts", n, got, i+1)
			}
		}
	}
	// The default splits evenly, as it always has.
	c := newResultCache(4096)
	for i := range c.shards {
		if c.shards[i].cap != 256 {
			t.Fatalf("default cache: shard %d holds %d, want 256", i, c.shards[i].cap)
		}
	}
}
