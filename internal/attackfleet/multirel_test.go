package attackfleet

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestMultiReleaseBounds runs the chain-retaining adversary on a small chain
// and checks the composed accounting holds: zero violations, a monotone
// composed bound, and per-release h within the Theorem-1 bound.
func TestMultiReleaseBounds(t *testing.T) {
	rep, err := MultiRelease(MultiReleaseConfig{
		N: 1500, Seed: 11, Releases: 3, Churn: 30, Victims: 8,
		Fractions: []float64{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("composed bound violations: %d\n%+v", rep.Violations, rep.Curve)
	}
	if len(rep.Curve) != 3 {
		t.Fatalf("curve has %d points, want 3", len(rep.Curve))
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows has %d entries, want 3", len(rep.Rows))
	}
	prev := 0.0
	for _, pt := range rep.Curve {
		if pt.Bound <= prev {
			t.Errorf("composed bound must grow with T: T=%d bound %v after %v", pt.Releases, pt.Bound, prev)
		}
		prev = pt.Bound
		if pt.MaxH > rep.HBound+1e-9 {
			t.Errorf("T=%d: max h %v exceeds bound %v", pt.Releases, pt.MaxH, rep.HBound)
		}
		if pt.MaxGrowth > pt.Bound+1e-9 {
			t.Errorf("T=%d: max growth %v exceeds composed bound %v", pt.Releases, pt.MaxGrowth, pt.Bound)
		}
		if pt.MaxPosterior < pt.MeanPosterior {
			t.Errorf("T=%d: max posterior %v below mean %v", pt.Releases, pt.MaxPosterior, pt.MeanPosterior)
		}
	}
	// Retaining more releases must not shrink the strongest adversary's
	// composed posterior: evidence only accumulates.
	for i := 1; i < len(rep.Curve); i++ {
		if rep.Curve[i].MaxPosterior+1e-9 < rep.Curve[i-1].MaxPosterior {
			t.Logf("note: max posterior dipped from %v to %v between T=%d and T=%d (possible under churned candidates)",
				rep.Curve[i-1].MaxPosterior, rep.Curve[i].MaxPosterior, i, i+1)
		}
	}
}

// TestMultiReleaseDeterministicAcrossWorkers pins the byte-identity
// contract: the report is identical at any GOMAXPROCS.
func TestMultiReleaseDeterministicAcrossWorkers(t *testing.T) {
	cfg := MultiReleaseConfig{
		N: 1200, Seed: 5, Releases: 2, Churn: 25, Victims: 6,
		Fractions: []float64{0.5},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := MultiRelease(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(7)
	b, err := MultiRelease(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("reports differ across GOMAXPROCS values:\n1: %s\n7: %s", aj, bj)
	}
}
