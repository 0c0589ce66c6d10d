package dp

import "testing"

// TestNoiseAllocs budgets the DP draw at zero heap allocations: the keyed
// hash, the splitmix finalizer and the Laplace quantile all run on the
// stack, and every DP-mode answer pays for one draw.
func TestNoiseAllocs(t *testing.T) {
	m := Mechanism{Seed: 7, CRC: 0xdeadbeef}
	n := testing.AllocsPerRun(100, func() { m.Noise("alice", "count|Age=30..50", 0, 2.5) })
	if n > 0 {
		t.Fatalf("Mechanism.Noise: %v allocs per call, budget 0", n)
	}
}
