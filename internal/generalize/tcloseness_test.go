package generalize

import (
	"math"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
)

func TestEMDOrdered(t *testing.T) {
	// Identical distributions: 0.
	p := []float64{0.5, 0.3, 0.2}
	if d, err := EMDOrdered(p, p); err != nil || d != 0 {
		t.Fatalf("EMD(p,p) = %v, %v", d, err)
	}
	// Point masses at the extremes of an n-code domain: distance 1.
	a := []float64{1, 0, 0, 0}
	b := []float64{0, 0, 0, 1}
	if d, _ := EMDOrdered(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("extreme EMD = %v, want 1", d)
	}
	// Adjacent point masses over 4 codes: 1/(n-1) = 1/3.
	c := []float64{0, 1, 0, 0}
	if d, _ := EMDOrdered(a, c); math.Abs(d-1.0/3) > 1e-12 {
		t.Fatalf("adjacent EMD = %v, want 1/3", d)
	}
	if _, err := EMDOrdered(a, p); err == nil {
		t.Fatal("mismatched domains: want error")
	}
	// Degenerate single-code domain.
	if d, err := EMDOrdered([]float64{1}, []float64{1}); err != nil || d != 0 {
		t.Fatalf("single-code EMD = %v, %v", d, err)
	}
}

func TestTotalVariation(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if d, _ := totalVariation(a, b); d != 1 {
		t.Fatalf("TV = %v, want 1", d)
	}
	if d, _ := totalVariation(a, a); d != 0 {
		t.Fatalf("TV(p,p) = %v", d)
	}
	if _, err := totalVariation(a, []float64{1}); err == nil {
		t.Fatal("mismatched domains: want error")
	}
}

// Property: EMD and TV are symmetric, non-negative, and TV <= 1.
func TestDistanceProperties(t *testing.T) {
	f := func(rawP, rawQ [6]uint8) bool {
		p := make([]float64, 6)
		q := make([]float64, 6)
		sp, sq := 0.0, 0.0
		for i := 0; i < 6; i++ {
			p[i] = float64(rawP[i]) + 1
			q[i] = float64(rawQ[i]) + 1
			sp += p[i]
			sq += q[i]
		}
		for i := 0; i < 6; i++ {
			p[i] /= sp
			q[i] /= sq
		}
		e1, _ := EMDOrdered(p, q)
		e2, _ := EMDOrdered(q, p)
		v1, _ := totalVariation(p, q)
		v2, _ := totalVariation(q, p)
		return math.Abs(e1-e2) < 1e-12 && math.Abs(v1-v2) < 1e-12 &&
			e1 >= 0 && v1 >= 0 && v1 <= 1 && e1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// MaxCloseness is the smallest t for which the grouping satisfies the
// t-closeness principle.
func TestMaxClosenessAndPrinciple(t *testing.T) {
	// Table with ordered sensitive attribute: two groups, one matching the
	// global distribution exactly, one skewed.
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("Q", 0, 1)},
		dataset.MustIntAttribute("S", 0, 3),
	)
	tbl := dataset.NewTable(s)
	// Group 0 (Q=0): S values 0,1,2,3 — uniform.
	for v := int32(0); v < 4; v++ {
		tbl.MustAppend([]int32{0, v})
	}
	// Group 1 (Q=1): S values 0,0,0,0 — a point mass.
	for i := 0; i < 4; i++ {
		tbl.MustAppend([]int32{1, 0})
	}
	g := &Groups{
		Keys: [][]int32{{0}, {1}},
		Rows: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
	}
	worst, err := MaxCloseness(tbl, g)
	if err != nil {
		t.Fatal(err)
	}
	// Global pdf: (5/8, 1/8, 1/8, 1/8). Group 1 pdf: (1,0,0,0).
	// Prefix sums of (p - q): 3/8, 2/8, 1/8 → EMD = (6/8)/3 = 0.25.
	// Group 0 (uniform) gives the mirror image, also 0.25.
	if math.Abs(worst-0.25) > 1e-12 {
		t.Fatalf("MaxCloseness = %v, want 0.25", worst)
	}
	if _, err := MaxCloseness(tbl, &Groups{}); err == nil {
		t.Fatal("no groups: want error")
	}
}
