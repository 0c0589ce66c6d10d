package pg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

func hospitalHiers(s *dataset.Schema) []*hierarchy.Hierarchy {
	return []*hierarchy.Hierarchy{
		hierarchy.MustInterval(s.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(s.QI[1].Size()),
		hierarchy.MustInterval(s.QI[2].Size(), 5, 20),
	}
}

func TestPublishTableII(t *testing.T) {
	// The walkthrough of Table II: p = 0.25, s = 0.5 hence k = 2, on the
	// hospital microdata.
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if pub.K != 2 {
		t.Fatalf("K = %d, want ceil(1/0.5) = 2", pub.K)
	}
	if err := pub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Cardinality constraint: |D*| <= |D|*s.
	if pub.Len() > int(float64(d.Len())*0.5) {
		t.Fatalf("|D*| = %d exceeds |D|*s = %v", pub.Len(), float64(d.Len())*0.5)
	}
	// Each published tuple's G is its stratum size, and the G values sum to
	// |D| (the strata partition the microdata).
	sum := 0
	for _, g := range pub.Columns().G {
		sum += int(g)
	}
	if sum != d.Len() {
		t.Fatalf("sum of G = %d, want %d", sum, d.Len())
	}
}

func TestPublishKDirect(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 4, P: 0.3, Seed: 2})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if pub.K != 4 {
		t.Fatalf("K = %d", pub.K)
	}
	for _, g := range pub.Columns().G {
		if g < 4 {
			t.Fatalf("G = %d < 4", g)
		}
	}
}

func TestPublishErrors(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	if _, err := Publish(dataset.NewTable(d.Schema), hiers, Config{K: 2, P: 0.3}); err == nil {
		t.Fatal("empty microdata: want error")
	}
	if _, err := Publish(d, hiers, Config{P: 0.3}); err == nil {
		t.Fatal("K = 0: want error")
	}
	if _, err := Publish(d, hiers, Config{K: 2, P: -0.1}); err == nil {
		t.Fatal("negative p: want error")
	}
	if _, err := Publish(d, hiers, Config{K: 2, P: 0.3, Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("unknown algorithm: want error")
	}
	if _, err := Publish(d, hiers, Config{K: 99, P: 0.3}); err == nil {
		t.Fatal("k > |D|: want error")
	}
}

func TestPublishFullDomain(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Algorithm: FullDomain, Seed: 3})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := pub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFindCrucial(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 4})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Every microdata QI vector must match exactly one published row (A1).
	for i := 0; i < d.Len(); i++ {
		r, ok := pub.FindCrucial(d.QIVector(i))
		if !ok {
			t.Fatalf("no crucial tuple for row %d", i)
		}
		matches := 0
		for j := 0; j < pub.Len(); j++ {
			if pub.Columns().Row(j).Box.Covers(d.QIVector(i)) {
				matches++
			}
		}
		if matches != 1 {
			t.Fatalf("row %d matched %d published tuples, want exactly 1", i, matches)
		}
		_ = r
	}
	// A QI vector outside every group cover can fail only if the recoding
	// does not cover the whole QI space — cuts cover all leaves, so every
	// vector finds a crucial tuple *unless* its group was never formed.
	// Construct a vector from an unused corner and accept either outcome,
	// exercising the not-found path when possible.
	far := []int32{int32(d.Schema.QI[0].Size() - 1), 0, int32(d.Schema.QI[2].Size() - 1)}
	_, _ = pub.FindCrucial(far)
}

func TestAlgorithmString(t *testing.T) {
	if TDS.String() != "tds" || FullDomain.String() != "full-domain" {
		t.Fatal("Algorithm.String")
	}
	if !strings.Contains(Algorithm(7).String(), "7") {
		t.Fatal("unknown algorithm string")
	}
}

func TestGuaranteesMethod(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.3, Seed: 5})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	rho2, delta, err := pub.Guarantees(0.1, 0.2)
	if err != nil {
		t.Fatalf("Guarantees: %v", err)
	}
	if !(rho2 > 0.2 && rho2 < 1) || !(delta > 0 && delta < 1) {
		t.Fatalf("bounds out of range: rho2=%v delta=%v", rho2, delta)
	}
	if _, _, err := pub.Guarantees(0.1, 0); err == nil {
		t.Fatal("rho1=0: want error")
	}
	if _, _, err := pub.Guarantees(0, 0.2); err == nil {
		t.Fatal("lambda=0: want error")
	}
}

func TestWriteCSV(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 6})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	var sb strings.Builder
	if err := pub.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != pub.Len()+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), pub.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "Age,Gender,Zipcode,Disease,G") {
		t.Fatalf("header = %q", lines[0])
	}
	if strings.Contains(out, "SourceRow") {
		t.Fatal("CSV must not leak SourceRow")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 7})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// The test corrupts the publication's own columns in place, one field
	// at a time, restoring each before the next.
	c := pub.Columns()
	good := c.Row(0)
	c.G[0] = 1
	if err := pub.Validate(); err == nil {
		t.Fatal("G < K: want error")
	}
	c.G[0] = int64(good.G)
	c.Value[0] = 999
	if err := pub.Validate(); err == nil {
		t.Fatal("bad sensitive value: want error")
	}
	c.Value[0] = good.Value
	if c.N > 1 {
		saved := c.Row(1)
		for j := 0; j < c.D; j++ { // duplicate box: a G3 violation
			c.Lo[j*c.N+1], c.Hi[j*c.N+1] = good.Box.Lo[j], good.Box.Hi[j]
		}
		if err := pub.Validate(); err == nil {
			t.Fatal("overlapping boxes: want error")
		}
		for j := 0; j < c.D; j++ {
			c.Lo[j*c.N+1], c.Hi[j*c.N+1] = saved.Box.Lo[j], saved.Box.Hi[j]
		}
	}
	short := *c
	short.Lo = c.Lo[:len(c.Lo)-1]
	if _, err := FromColumns(*pub, &short); err == nil {
		t.Fatal("short box: want error")
	}
	c.Lo[0] = -1
	if err := pub.Validate(); err == nil {
		t.Fatal("negative box bound: want error")
	}
}

func TestPublishKD(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Algorithm: KD, Seed: 8})
	if err != nil {
		t.Fatalf("Publish(KD): %v", err)
	}
	if pub.Recoding != nil {
		t.Fatal("KD publications carry no cut recoding")
	}
	if err := pub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// KD cells cover the full QI space: any vector finds a crucial tuple.
	if _, ok := pub.FindCrucial([]int32{0, 0, 0}); !ok {
		t.Fatal("KD cells must cover the whole QI space")
	}
	sum := 0
	for _, g := range pub.Columns().G {
		sum += int(g)
	}
	if sum != d.Len() {
		t.Fatalf("sum of G = %d, want %d", sum, d.Len())
	}
}

// Property: for random seeds and parameter choices, Publish emits a valid
// D* whose strata sum to |D| and whose every row count respects K.
func TestPublishInvariants(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	f := func(seed int64, kRaw, pRaw uint8) bool {
		k := int(kRaw%4) + 1
		p := float64(pRaw%101) / 100
		pub, err := Publish(d, hiers, Config{K: k, P: p, Seed: rand.New(rand.NewSource(seed)).Int63()})
		if err != nil {
			return false
		}
		if pub.Validate() != nil {
			return false
		}
		sum := 0
		for _, g := range pub.Columns().G {
			sum += int(g)
		}
		return sum == d.Len() && pub.Len() <= d.Len()/k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
