package perturb

import (
	"math"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
)

func TestNewPerturberValidation(t *testing.T) {
	if _, err := NewPerturber(-0.1, 10); err == nil {
		t.Fatal("negative p: want error")
	}
	if _, err := NewPerturber(1.1, 10); err == nil {
		t.Fatal("p > 1: want error")
	}
	if _, err := NewPerturber(0.5, 0); err == nil {
		t.Fatal("empty domain: want error")
	}
	if _, err := NewPerturber(0.5, 10); err != nil {
		t.Fatal("valid params rejected")
	}
}

func TestTransitionProbEquation11(t *testing.T) {
	pb, _ := NewPerturber(0.25, 4)
	// Eq. 11: diag = p + (1-p)/|U|; off = (1-p)/|U|.
	if got := pb.TransitionProb(1, 1); math.Abs(got-(0.25+0.75/4)) > 1e-15 {
		t.Fatalf("diag = %v", got)
	}
	if got := pb.TransitionProb(1, 2); math.Abs(got-0.75/4) > 1e-15 {
		t.Fatalf("off = %v", got)
	}
}

// Property: Equation 11's transition matrix is stochastic — for every source
// value a, TransitionProb(a, ·) sums to 1 over the domain.
func TestMatrixStochastic(t *testing.T) {
	f := func(pRaw uint8, nRaw uint8) bool {
		p := float64(pRaw%101) / 100
		n := int(nRaw%20) + 1
		pb, err := NewPerturber(p, n)
		if err != nil {
			return false
		}
		for a := int32(0); a < int32(n); a++ {
			sum := 0.0
			for b := int32(0); b < int32(n); b++ {
				sum += pb.TransitionProb(a, b)
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueRetentionFrequency(t *testing.T) {
	// With p = 0.6 over a domain of 5, P[output == input] = 0.6 + 0.4/5 =
	// 0.68. Check a Monte-Carlo frequency within 3 sigma over a table whose
	// every sensitive value is 3.
	pb, _ := NewPerturber(0.6, 5)
	const trials = 200000
	d := dataset.NewTable(dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("Q", 0, 0)},
		dataset.MustIntAttribute("S", 0, 4),
	))
	for i := 0; i < trials; i++ {
		d.MustAppend([]int32{0, 3})
	}
	dp, err := pb.TableSharded(d, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < trials; i++ {
		if dp.Sensitive(i) == 3 {
			same++
		}
	}
	want := 0.68
	got := float64(same) / trials
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 3*sigma {
		t.Fatalf("retention frequency %v, want %v +- %v", got, want, 3*sigma)
	}
}

func TestTableP1P2(t *testing.T) {
	h := dataset.Hospital()
	pb, _ := NewPerturber(0.5, h.Schema.SensitiveDomain())
	dp, err := pb.TableSharded(h, 7, 1)
	if err != nil {
		t.Fatalf("TableSharded: %v", err)
	}
	if dp.Len() != h.Len() {
		t.Fatal("perturbation changed cardinality")
	}
	for i := 0; i < h.Len(); i++ {
		// P1: QI untouched.
		for j := 0; j < h.Schema.D(); j++ {
			if dp.QI(i, j) != h.QI(i, j) {
				t.Fatalf("row %d QI %d changed", i, j)
			}
		}
		// P2: sensitive stays in domain.
		if !h.Schema.Sensitive.Valid(dp.Sensitive(i)) {
			t.Fatalf("row %d sensitive out of domain", i)
		}
	}
	// The original table is untouched.
	if h.Schema.Sensitive.Label(h.Sensitive(0)) != "bronchitis" {
		t.Fatal("source table mutated")
	}
	// Domain mismatch is rejected.
	bad, _ := NewPerturber(0.5, 3)
	if _, err := bad.TableSharded(h, 7, 1); err == nil {
		t.Fatal("domain mismatch: want error")
	}
	// p = 1 is the identity.
	id, _ := NewPerturber(1, h.Schema.SensitiveDomain())
	same, err := id.TableSharded(h, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.Len(); i++ {
		if same.Sensitive(i) != h.Sensitive(i) {
			t.Fatal("p=1 must retain all values")
		}
	}
}

func TestReconstructCategories(t *testing.T) {
	// Categories of unequal width: frac = (0.5, 0.3, 0.2).
	frac := []float64{0.5, 0.3, 0.2}
	c := []float64{200, 500, 300}
	p := 0.3
	n := 1000.0
	obs := make([]float64, len(c))
	for j := range obs {
		obs[j] = p*c[j] + (1-p)*n*frac[j]
	}
	got, err := ReconstructCategories(obs, frac, p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range c {
		if math.Abs(got[j]-c[j]) > 1e-9 {
			t.Fatalf("reconstructed[%d] = %v, want %v", j, got[j], c[j])
		}
	}
	if _, err := ReconstructCategories(obs, frac[:2], p); err == nil {
		t.Fatal("length mismatch: want error")
	}
	if _, err := ReconstructCategories(obs, []float64{0.5, 0.5, 0.5}, p); err == nil {
		t.Fatal("fractions not summing to 1: want error")
	}
	if _, err := ReconstructCategories(obs, []float64{1.5, -0.3, -0.2}, p); err == nil {
		t.Fatal("negative fraction: want error")
	}
	if _, err := ReconstructCategories(obs, frac, 0); err == nil {
		t.Fatal("p = 0: want error")
	}
	if _, err := ReconstructCategories([]float64{-1, 1, 1}, frac, p); err == nil {
		t.Fatal("negative obs: want error")
	}
	z, err := ReconstructCategories([]float64{0, 0, 0}, frac, p)
	if err != nil || z[0] != 0 {
		t.Fatal("zero observation must reconstruct to zero")
	}
}
