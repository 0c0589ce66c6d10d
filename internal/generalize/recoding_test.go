package generalize

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

// hospitalHiers builds hierarchies for the Table Ia schema that mirror the
// granularity of Table Ic: 20-year age bands, 20k zipcode bands, Gender flat.
func hospitalHiers(s *dataset.Schema) []*hierarchy.Hierarchy {
	return []*hierarchy.Hierarchy{
		hierarchy.MustInterval(s.QI[0].Size(), 5, 20), // Age: 5y then 20y bands
		hierarchy.MustFlat(s.QI[1].Size()),            // Gender
		hierarchy.MustInterval(s.QI[2].Size(), 5, 20), // Zipcode: 5k then 20k bands
	}
}

// identityRecoding is the recoding that leaves every value untouched: each
// attribute's cut is its leaves.
func identityRecoding(t testing.TB, s *dataset.Schema, hiers []*hierarchy.Hierarchy) *Recoding {
	t.Helper()
	cuts := make([]*hierarchy.Cut, len(hiers))
	for j, h := range hiers {
		leaves := make([]int32, h.Leaves())
		for i := range leaves {
			leaves[i] = int32(i)
		}
		c, err := hierarchy.NewCut(h, leaves)
		if err != nil {
			t.Fatal(err)
		}
		cuts[j] = c
	}
	rec, err := NewRecoding(s, hiers, cuts)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// refinable returns the cut's nodes that are not leaves: the nodes Refine
// accepts.
func refinable(h *hierarchy.Hierarchy, c *hierarchy.Cut) []int32 {
	var out []int32
	for _, v := range c.Nodes() {
		if !h.IsLeaf(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestNewRecodingValidation(t *testing.T) {
	s := dataset.HospitalSchema()
	hiers := hospitalHiers(s)
	cuts := []*hierarchy.Cut{
		hierarchy.TopCut(hiers[0]),
		hierarchy.TopCut(hiers[1]),
		hierarchy.TopCut(hiers[2]),
	}
	if _, err := NewRecoding(s, hiers, cuts); err != nil {
		t.Fatalf("NewRecoding: %v", err)
	}
	if _, err := NewRecoding(s, hiers[:2], cuts); err == nil {
		t.Fatal("too few hierarchies: want error")
	}
	if _, err := NewRecoding(s, hiers, cuts[:2]); err == nil {
		t.Fatal("too few cuts: want error")
	}
	// Hierarchy with wrong leaf count.
	bad := append([]*hierarchy.Hierarchy(nil), hiers...)
	bad[0] = hierarchy.MustFlat(3)
	if _, err := NewRecoding(s, bad, cuts); err == nil {
		t.Fatal("mismatched hierarchy: want error")
	}
	// Cut from a different hierarchy instance.
	other := hierarchy.MustInterval(s.QI[0].Size(), 5, 20)
	mixed := append([]*hierarchy.Cut(nil), cuts...)
	mixed[0] = hierarchy.TopCut(other)
	if _, err := NewRecoding(s, hiers, mixed); err == nil {
		t.Fatal("foreign cut: want error")
	}
}

func TestGeneralizeAndLabels(t *testing.T) {
	h := dataset.Hospital()
	s := h.Schema
	hiers := hospitalHiers(s)
	rec, err := TopRecoding(s, hiers)
	if err != nil {
		t.Fatalf("TopRecoding: %v", err)
	}
	g := rec.Generalize(h.QIVector(0))
	for j := range g {
		if g[j] != hiers[j].Root() {
			t.Fatalf("top recoding component %d = %d, want root", j, g[j])
		}
	}
	if !rec.GeneralizesVector(g, h.QIVector(0)) {
		t.Fatal("top vector must generalize everything")
	}
	labels := rec.Labels(s, g)
	if !reflect.DeepEqual(labels, []string{"*", "*", "*"}) {
		t.Fatalf("labels = %v", labels)
	}

	id := identityRecoding(t, s, hiers)
	v := h.QIVector(0)
	if !reflect.DeepEqual(id.Generalize(v), v) {
		t.Fatal("identity recoding changed values")
	}
	// A generalized vector of the wrong group must not generalize.
	other := id.Generalize(h.QIVector(3))
	if rec2 := id; rec2.GeneralizesVector(other, v) {
		t.Fatal("distinct identity vectors must not generalize each other")
	}
}

func TestGeneralizeInto(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	rec, _ := TopRecoding(h.Schema, hiers)
	dst := make([]int32, h.Schema.D())
	rec.GeneralizeInto(dst, h.QIVector(2))
	if !reflect.DeepEqual(dst, rec.Generalize(h.QIVector(2))) {
		t.Fatal("GeneralizeInto differs from Generalize")
	}
}

func TestGroupByHospital(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)

	// Identity recoding: 8 distinct QI vectors -> 8 singleton groups.
	id := identityRecoding(t, h.Schema, hiers)
	g := GroupBy(h, id)
	if g.Len() != 8 || g.MinSize() != 1 {
		t.Fatalf("identity grouping: %d groups min %d", g.Len(), g.MinSize())
	}
	if g.IsKAnonymous(2) {
		t.Fatal("identity grouping must not be 2-anonymous")
	}

	// Top recoding: one group of 8.
	top, _ := TopRecoding(h.Schema, hiers)
	g = GroupBy(h, top)
	if g.Len() != 1 || g.MinSize() != 8 {
		t.Fatalf("top grouping: %d groups min %d", g.Len(), g.MinSize())
	}
	if !g.IsKAnonymous(8) || g.IsKAnonymous(9) {
		t.Fatal("top grouping anonymity wrong")
	}

	// Every row is in exactly one group, and its generalized key matches.
	seen := make(map[int]bool)
	for gi, rows := range g.Rows {
		for _, i := range rows {
			if seen[i] {
				t.Fatalf("row %d in two groups", i)
			}
			seen[i] = true
			if !top.GeneralizesVector(g.Keys[gi], h.QIVector(i)) {
				t.Fatalf("group key %v does not generalize row %d", g.Keys[gi], i)
			}
		}
	}
	if len(seen) != h.Len() {
		t.Fatalf("groups cover %d of %d rows", len(seen), h.Len())
	}
}

func TestGroupsMinSizeEmpty(t *testing.T) {
	var g Groups
	if g.MinSize() != 0 {
		t.Fatal("empty groups MinSize must be 0")
	}
	if g.IsKAnonymous(1) {
		t.Fatal("empty partition must not be k-anonymous")
	}
}

// randomTable builds a random table over a 2-QI schema for property tests.
func randomTable(n int, rng *rand.Rand) (*dataset.Table, []*hierarchy.Hierarchy) {
	s := dataset.MustSchema(
		[]*dataset.Attribute{
			dataset.MustIntAttribute("A", 0, 15),
			dataset.MustIntAttribute("B", 0, 7),
		},
		dataset.MustAttribute("S", "s0", "s1", "s2", "s3"),
	)
	t := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		t.MustAppend([]int32{int32(rng.Intn(16)), int32(rng.Intn(8)), int32(rng.Intn(4))})
	}
	hiers := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(16, 2, 4, 8),
		hierarchy.MustInterval(8, 2, 4),
	}
	return t, hiers
}

// Property: GroupBy agrees with a naive map-based grouping, for random cuts.
func TestGroupByMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, hiers := randomTable(64, rng)
		rec, err := TopRecoding(tbl.Schema, hiers)
		if err != nil {
			return false
		}
		// Random refinement of each cut.
		for j := range rec.Cuts {
			for step := 0; step < rng.Intn(4); step++ {
				cand := refinable(hiers[j], rec.Cuts[j])
				if len(cand) == 0 {
					break
				}
				nc, err := rec.Cuts[j].Refine(cand[rng.Intn(len(cand))])
				if err != nil {
					return false
				}
				rec.Cuts[j] = nc
			}
		}
		g := GroupBy(tbl, rec)
		naive := make(map[[2]int32][]int)
		for i := 0; i < tbl.Len(); i++ {
			gv := rec.Generalize(tbl.QIVector(i))
			naive[[2]int32{gv[0], gv[1]}] = append(naive[[2]int32{gv[0], gv[1]}], i)
		}
		if g.Len() != len(naive) {
			return false
		}
		for gi, key := range g.Keys {
			want := naive[[2]int32{key[0], key[1]}]
			if !reflect.DeepEqual(g.Rows[gi], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
