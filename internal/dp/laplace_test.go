package dp

import (
	"math"
	"testing"

	"pgpub/internal/par"
)

// TestLaplaceQuantileFixture pins the inverse-CDF sampler to hand-computed
// quantiles: Q(1/2) = 0, Q(3/4) = b·ln 2 ≈ 0.693·b, Q(0.99) = b·ln 50 ≈
// 3.912·b, with the symmetric negatives at 1/4 and 0.01. The literals are
// written out (not recomputed via math.Log) so a regression in the sampler
// cannot hide behind the same bug in the expectation.
func TestLaplaceQuantileFixture(t *testing.T) {
	const (
		ln2  = 0.6931471805599453
		ln50 = 3.9120230054281460
	)
	cases := []struct {
		u, b, want float64
	}{
		{0.01, 1, -ln50},
		{0.25, 1, -ln2},
		{0.50, 1, 0},
		{0.75, 1, ln2},
		{0.99, 1, ln50},
		{0.01, 2, -2 * ln50},
		{0.25, 2, -2 * ln2},
		{0.50, 2, 0},
		{0.75, 2, 2 * ln2},
		{0.99, 2, 2 * ln50},
	}
	for _, c := range cases {
		got := LaplaceQuantile(c.u, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LaplaceQuantile(%v, %v) = %v, want %v", c.u, c.b, got, c.want)
		}
	}
}

// TestLaplaceMomentsSmoke samples the full pipeline — splitmix64 stream →
// uniform53 → quantile — and checks the first two moments: mean ≈ 0 and
// variance ≈ 2b². Tolerances are 5 standard errors of each estimator
// (Var(x̄) = 2b²/N; Var(s²) ≈ 20b⁴/N for Laplace, whose fourth central
// moment is 24b⁴), and the stream is a fixed seed, so the test is exact in
// practice and the bound only documents why the tolerance is sound.
func TestLaplaceMomentsSmoke(t *testing.T) {
	const (
		n = 200_000
		b = 2.0
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := uniform53(uint64(par.SplitSeed(12345, i)))
		x := LaplaceQuantile(u, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if tol := 5 * math.Sqrt(2*b*b/n); math.Abs(mean) > tol {
		t.Errorf("sample mean %v exceeds %v", mean, tol)
	}
	wantVar := 2 * b * b
	if tol := 5 * math.Sqrt(20/float64(n)) * b * b; math.Abs(variance-wantVar) > tol {
		t.Errorf("sample variance %v, want %v ± %v", variance, wantVar, tol)
	}
}

// TestUniformOpenInterval: every derived u must stay strictly inside (0,1)
// so the quantile transform never produces ±Inf.
func TestUniformOpenInterval(t *testing.T) {
	m := Mechanism{Seed: 7, CRC: 0xDEADBEEF}
	for i := 0; i < 1000; i++ {
		u := m.Uniform("key", "query", i)
		if !(u > 0 && u < 1) {
			t.Fatalf("draw %d: u = %v outside (0,1)", i, u)
		}
	}
	if u := uniform53(0); !(u > 0) {
		t.Errorf("uniform53(0) = %v, want > 0", u)
	}
	if u := uniform53(math.MaxUint64); !(u < 1) {
		t.Errorf("uniform53(MaxUint64) = %v, want < 1", u)
	}
}

// TestMechanismKeying pins the anti-averaging property and its converse:
// identical (seed, key, query, CRC, draw) tuples produce the identical
// draw, and changing any single component re-keys the noise.
func TestMechanismKeying(t *testing.T) {
	m := Mechanism{Seed: 42, CRC: 0x1234}
	base := m.Noise("alice", "q1", 0, 1)
	if again := m.Noise("alice", "q1", 0, 1); again != base {
		t.Errorf("identical draw not deterministic: %v then %v", base, again)
	}
	variants := map[string]float64{
		"api key":  m.Noise("bob", "q1", 0, 1),
		"query":    m.Noise("alice", "q2", 0, 1),
		"draw":     m.Noise("alice", "q1", 1, 1),
		"crc":      Mechanism{Seed: 42, CRC: 0x1235}.Noise("alice", "q1", 0, 1),
		"rootseed": Mechanism{Seed: 43, CRC: 0x1234}.Noise("alice", "q1", 0, 1),
	}
	for what, v := range variants {
		if v == base {
			t.Errorf("changing the %s did not change the draw (%v)", what, v)
		}
	}
	if m.Noise("alice", "q1", 0, 0) != 0 {
		t.Errorf("zero scale must add no noise")
	}
	if got, want := m.Noise("alice", "q1", 0, 3), 3*m.Noise("alice", "q1", 0, 1); got != want {
		t.Errorf("scale must be linear in b: got %v, want %v", got, want)
	}
}

// TestAnswerScalesAndDraws pins the scale and draw index of every op
// against Noise: count and naive at 1/ε, sum at sens/ε on draw 0, avg at
// sens/(ε/2) on draw 0 over 1/(ε/2) on draw 1, and an avg whose noised
// weight is not positive refused.
func TestAnswerScalesAndDraws(t *testing.T) {
	m := Mechanism{Seed: 11, CRC: 0xfeed}
	const eps, sens, est, sum, weight = 0.4, 9.0, 120.0, 700.0, 35.0
	half := eps / 2
	for _, c := range []struct {
		op   string
		want float64
	}{
		{"count", est + m.Noise("k", "q", 0, 1/eps)},
		{"naive", est + m.Noise("k", "q", 0, 1/eps)},
		{"sum", sum + m.Noise("k", "q", 0, sens/eps)},
		{"avg", (sum + m.Noise("k", "q", 0, sens/half)) / (weight + m.Noise("k", "q", 1, 1/half))},
	} {
		if got, err := m.Answer("k", "q", c.op, est, sum, weight, eps, sens); err != nil || got != c.want {
			t.Errorf("%s: Answer = %v, %v; want %v", c.op, got, err, c.want)
		}
	}
	if _, err := m.Answer("k", "q", "avg", est, sum, -1000, eps, sens); err == nil {
		t.Error("avg with a negative noised weight answered")
	}
	if _, err := m.Answer("k", "q", "median", est, sum, weight, eps, sens); err == nil {
		t.Error("unknown op answered")
	}
}
