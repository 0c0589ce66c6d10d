package generalize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
)

func TestTDSHospital(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	res, err := TDS(h, hiers, TDSConfig{K: 2})
	if err != nil {
		t.Fatalf("TDS: %v", err)
	}
	if !res.Groups.IsKAnonymous(2) {
		t.Fatal("TDS result not 2-anonymous")
	}
	if res.MinGroup < 2 {
		t.Fatalf("MinGroup = %d", res.MinGroup)
	}
	// TDS must have specialized at least once: the hospital table's top
	// grouping is a single group of 8, but gender alone splits it validly.
	if res.Rounds == 0 {
		t.Fatal("TDS performed no specialization")
	}
	// Every group key must generalize all its rows.
	for gi, rows := range res.Groups.Rows {
		for _, i := range rows {
			if !res.Recoding.GeneralizesVector(res.Groups.Keys[gi], h.QIVector(i)) {
				t.Fatalf("group %d key does not generalize row %d", gi, i)
			}
		}
	}
}

func TestTDSKEqualsOneReachesLeaves(t *testing.T) {
	// With k=1 and all-distinct rows, TDS can specialize all the way down
	// whenever doing so has non-negative score; at minimum the result is
	// 1-anonymous.
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	res, err := TDS(h, hiers, TDSConfig{K: 1})
	if err != nil {
		t.Fatalf("TDS: %v", err)
	}
	if !res.Groups.IsKAnonymous(1) {
		t.Fatal("not 1-anonymous")
	}
}

func TestTDSErrors(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	if _, err := TDS(h, hiers, TDSConfig{K: 0}); err == nil {
		t.Fatal("K=0: want error")
	}
	if _, err := TDS(h, hiers, TDSConfig{K: 9}); err == nil {
		t.Fatal("K > |D|: want error")
	}
	empty := dataset.NewTable(h.Schema)
	if _, err := TDS(empty, hiers, TDSConfig{K: 1}); err == nil {
		t.Fatal("empty table: want error")
	}
}

// TDS runs to its natural round bound: each round refines one internal
// hierarchy node, never the same one twice, so Rounds is exactly the number
// of internal nodes above the final cuts, at most one per internal node.
func TestTDSMaxRounds(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	res, err := TDS(h, hiers, TDSConfig{K: 1})
	if err != nil {
		t.Fatalf("TDS: %v", err)
	}
	refined, bound := 0, 0
	for j, hh := range hiers {
		bound += hh.NumNodes() - hh.Leaves()
		above := map[int32]bool{}
		for _, v := range res.Recoding.Cuts[j].Nodes() {
			for p := hh.Parent(v); p >= 0 && !above[p]; p = hh.Parent(p) {
				above[p] = true
			}
		}
		refined += len(above)
	}
	if res.Rounds != refined || res.Rounds > bound {
		t.Fatalf("Rounds = %d; %d internal nodes refined, bound %d", res.Rounds, refined, bound)
	}
	if res.Rounds == 0 {
		t.Fatal("k=1 on distinct rows must specialize")
	}
}

// Property: TDS output is always k-anonymous for random tables and random k.
func TestTDSAlwaysKAnonymous(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := randomTable(40+rng.Intn(60), rng)
		k := int(kRaw%8) + 1
		res, err := TDS(tbl, hiers, TDSConfig{K: k})
		if err != nil {
			return false
		}
		if !res.Groups.IsKAnonymous(k) {
			return false
		}
		// Monotonicity of the paper's Property G1: every published tuple
		// generalizes a distinct microdata tuple — here every row belongs to
		// exactly one group.
		covered := 0
		for _, rows := range res.Groups.Rows {
			covered += len(rows)
		}
		return covered == tbl.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TDS should never do worse (in info gain terms) than staying at the top:
// the discernibility of its grouping is at most that of the single group.
func TestTDSImprovesDiscernibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl, hiers := randomTable(100, rng)
	res, err := TDS(tbl, hiers, TDSConfig{K: 5})
	if err != nil {
		t.Fatalf("TDS: %v", err)
	}
	topLoss := float64(tbl.Len()) * float64(tbl.Len())
	if Discernibility(res.Groups) > topLoss {
		t.Fatal("TDS grouping worse than full suppression")
	}
}
