package experiments

import (
	"fmt"
	"testing"
)

// TestDPUtilityRows pins the DP-vs-PG utility study bit for bit on a small
// release: the noise each row summarizes is the serving mechanism's, keyed
// as the server keys it, so a change to the draw or its scale shows here.
func TestDPUtilityRows(t *testing.T) {
	rep, err := DPUtility(6000, 5, 6, 0.3, []float64{0.1, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("queries %d, pg %v/%v, truth %v", rep.Queries, rep.PGMedianRel, rep.PGP90Rel, rep.TruthMedian)
	for _, r := range rep.Rows {
		got += fmt.Sprintf("\nε %v: %v %v %v", r.Epsilon, r.DPMedianRel, r.DPP90Rel, r.MedianAbsNoise)
	}
	const want = `queries 120, pg 0.18655174656904333/0.34971662596662584, truth 1697
ε 0.1: 0.17658166119723867 0.34779194273518377 7.419150775642455
ε 1: 0.18610915197973127 0.34891906387886146 0.7702629983518988`
	if got != want {
		t.Fatalf("DPUtility report:\n%s\nwant:\n%s", got, want)
	}
}
