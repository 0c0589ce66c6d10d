package minv

import (
	"math/rand"
	"reflect"
	"testing"

	"pgpub/internal/dataset"
)

// evolvingFixture builds a sequence of tables over a fixed population:
// owner o has QI code o and a stable sensitive value o % values. present[t]
// lists the owners alive at release t.
func evolvingFixture(t *testing.T, values int, present [][]int) []*dataset.Table {
	t.Helper()
	maxOwner := 0
	for _, ps := range present {
		for _, o := range ps {
			if o > maxOwner {
				maxOwner = o
			}
		}
	}
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("Q", 0, maxOwner)},
		dataset.MustIntAttribute("S", 0, values-1),
	)
	var tables []*dataset.Table
	for _, ps := range present {
		tbl := dataset.NewTable(s)
		for _, o := range ps {
			tbl.MustAppend([]int32{int32(o), int32(o % values)})
			tbl.Owners = append(tbl.Owners, o)
		}
		tables = append(tables, tbl)
	}
	return tables
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for o := lo; o <= hi; o++ {
		out = append(out, o)
	}
	return out
}

func TestPublishSingleRelease(t *testing.T) {
	tables := evolvingFixture(t, 4, [][]int{seq(0, 15)})
	st, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel, err := st.Publish(tables[0], rng)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := Verify([]*Release{rel}, tables[:1]); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// 16 owners over 4 values: all groups real, no counterfeits.
	if rel.Counterfeits() != 0 {
		t.Fatalf("unexpected counterfeits: %d", rel.Counterfeits())
	}
	covered := map[int]bool{}
	for _, g := range rel.Groups {
		for _, o := range g.Owners {
			if covered[o] {
				t.Fatalf("owner %d in two groups", o)
			}
			covered[o] = true
		}
	}
	if len(covered) != 16 {
		t.Fatalf("groups cover %d of 16 owners", len(covered))
	}
}

func TestPublishSequenceInvariant(t *testing.T) {
	// Release 1: owners 0..19. Release 2: 4 departures, 8 arrivals.
	// Release 3: more churn.
	present := [][]int{
		seq(0, 19),
		append(seq(4, 19), seq(20, 27)...),
		append(seq(8, 19), seq(20, 31)...),
	}
	tables := evolvingFixture(t, 4, present)
	st, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var releases []*Release
	for _, tbl := range tables {
		rel, err := st.Publish(tbl, rng)
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		releases = append(releases, rel)
	}
	if err := Verify(releases, tables); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The intersection attack must never shrink a surviving victim's
	// candidates below m.
	for _, victim := range seq(8, 19) { // alive in all three releases
		cand, ok := IntersectionAttack(releases, victim)
		if !ok {
			t.Fatalf("victim %d never appeared", victim)
		}
		if len(cand) < 3 {
			t.Fatalf("victim %d candidates shrank to %v", victim, cand)
		}
	}
}

func TestDeletionsForceCounterfeits(t *testing.T) {
	// Release 1 forms groups; release 2 deletes owners carrying one value of
	// some signature, forcing counterfeits to keep the survivors' signature.
	present := [][]int{
		seq(0, 11),
		{0, 1, 2, 4, 5, 6, 8, 9, 10}, // owners 3, 7, 11 (value 3) depart
	}
	tables := evolvingFixture(t, 4, present)
	st, err := NewState(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rel1, err := st.Publish(tables[0], rng)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := st.Publish(tables[1], rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify([]*Release{rel1, rel2}, tables); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rel2.Counterfeits() == 0 {
		t.Fatal("deleting a whole value class must force counterfeits")
	}
}

func TestPublishErrors(t *testing.T) {
	if _, err := NewState(1); err == nil {
		t.Fatal("m=1: want error")
	}
	tables := evolvingFixture(t, 4, [][]int{seq(0, 7)})
	st, _ := NewState(3)
	if _, err := st.Publish(tables[0], nil); err == nil {
		t.Fatal("nil rng: want error")
	}
	empty := dataset.NewTable(tables[0].Schema)
	rng := rand.New(rand.NewSource(4))
	if _, err := st.Publish(empty, rng); err == nil {
		t.Fatal("empty table: want error")
	}
	// Newcomers with fewer distinct values than m are ineligible.
	mono := evolvingFixture(t, 2, [][]int{seq(0, 7)})
	st3, _ := NewState(3)
	if _, err := st3.Publish(mono[0], rng); err == nil {
		t.Fatal("2 distinct values cannot be 3-unique: want error")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	tables := evolvingFixture(t, 4, [][]int{seq(0, 11)})
	st, _ := NewState(4)
	rng := rand.New(rand.NewSource(5))
	rel, err := st.Publish(tables[0], rng)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: shrink a group below m.
	bad := *rel
	bad.Groups = append([]Group(nil), rel.Groups...)
	bad.Groups[0] = Group{Owners: bad.Groups[0].Owners[:1], Sig: bad.Groups[0].Sig[:1]}
	if err := Verify([]*Release{&bad}, tables); err == nil {
		t.Fatal("undersized group: want error")
	}
	if err := Verify([]*Release{rel}, nil); err == nil {
		t.Fatal("length mismatch: want error")
	}
}

// The headline contrast: naive re-anonymization (fresh random groups each
// release) lets the intersection attack shrink candidates below m, while
// the m-invariant sequence never does.
func TestIntersectionAttackContrast(t *testing.T) {
	const m = 3
	present := [][]int{seq(0, 23), seq(0, 23), seq(0, 23)}
	tables := evolvingFixture(t, 6, present)

	// m-invariant sequence.
	st, _ := NewState(m)
	rngA := rand.New(rand.NewSource(6))
	var invariant []*Release
	for _, tbl := range tables {
		rel, err := st.Publish(tbl, rngA)
		if err != nil {
			t.Fatal(err)
		}
		invariant = append(invariant, rel)
	}
	for victim := 0; victim < 24; victim++ {
		cand, ok := IntersectionAttack(invariant, victim)
		if !ok || len(cand) < m {
			t.Fatalf("m-invariant victim %d candidates %v", victim, cand)
		}
	}

	// Naive sequence: each release independently forms random m-unique
	// groups with no signature continuity (what re-running any one-shot
	// anonymizer does).
	rngB := rand.New(rand.NewSource(7))
	var naive []*Release
	for _, tbl := range tables {
		naive = append(naive, naiveRelease(t, tbl, m, rngB))
	}
	shrunk := 0
	for victim := 0; victim < 24; victim++ {
		cand, ok := IntersectionAttack(naive, victim)
		if !ok {
			t.Fatalf("victim %d missing", victim)
		}
		if len(cand) < m {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("naive re-publication should leak via intersection for some victim")
	}
}

// naiveRelease forms random m-unique groups with no cross-release memory:
// each round draws m random distinct-value buckets and one tuple from each;
// residual tuples join an existing group lacking their value.
func naiveRelease(t *testing.T, tbl *dataset.Table, m int, rng *rand.Rand) *Release {
	t.Helper()
	byValue := map[int32][]int{}
	for i := 0; i < tbl.Len(); i++ {
		byValue[tbl.Sensitive(i)] = append(byValue[tbl.Sensitive(i)], i)
	}
	rel := &Release{M: m}
	for {
		var values []int32
		for v, rows := range byValue {
			if len(rows) > 0 {
				values = append(values, v)
			}
		}
		if len(values) < m {
			// Residue: attach leftovers to groups lacking their value.
			for _, v := range values {
				for _, row := range byValue[v] {
					placed := false
					for gi := range rel.Groups {
						if !rel.Groups[gi].Sig.contains(v) {
							rel.Groups[gi].Owners = append(rel.Groups[gi].Owners, tbl.Owner(row))
							rel.Groups[gi].Sig = append(rel.Groups[gi].Sig, v)
							placed = true
							break
						}
					}
					if !placed {
						t.Fatal("naive residue placement failed")
					}
				}
			}
			return rel
		}
		sortSig(values)
		rng.Shuffle(len(values), func(a, b int) { values[a], values[b] = values[b], values[a] })
		g := Group{}
		var sig Signature
		for _, v := range values[:m] {
			rows := byValue[v]
			pick := rng.Intn(len(rows))
			rows[pick], rows[len(rows)-1] = rows[len(rows)-1], rows[pick]
			g.Owners = append(g.Owners, tbl.Owner(rows[len(rows)-1]))
			byValue[v] = rows[:len(rows)-1]
			sig = append(sig, v)
		}
		sortSig(sig)
		g.Sig = sig
		rel.Groups = append(rel.Groups, g)
	}
}

func sortSig(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestPublishSameSeedSameReleases pins reproducibility: two fresh States
// publishing one table sequence from one seed must emit identical releases.
// Newcomers arrive in every round over many sensitive values, so a shuffle
// or a residue list taken in map-iteration order would show up as a
// difference within a few of the repeated runs.
func TestPublishSameSeedSameReleases(t *testing.T) {
	present := [][]int{
		seq(0, 59),
		append(seq(6, 59), seq(60, 83)...),
		append(seq(12, 83), seq(84, 101)...),
		append(seq(20, 101), seq(102, 130)...),
	}
	tables := evolvingFixture(t, 9, present)
	publish := func() []*Release {
		st, err := NewState(3)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var releases []*Release
		for _, tbl := range tables {
			rel, err := st.Publish(tbl, rng)
			if err != nil {
				t.Fatalf("Publish: %v", err)
			}
			releases = append(releases, rel)
		}
		return releases
	}
	want := publish()
	for run := 0; run < 20; run++ {
		if got := publish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: one seed gave different releases", run)
		}
	}
}
