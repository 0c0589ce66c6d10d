package mining

import (
	"math/rand"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

func TestTrainNBBasic(t *testing.T) {
	// A cleanly separable ordered feature.
	ds := mustDataset(t, []int{20}, []bool{true}, 2)
	for v := int32(0); v < 20; v++ {
		c := 0
		if v >= 10 {
			c = 1
		}
		for rep := 0; rep < 10; rep++ {
			if err := ds.Add([]int32{v}, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	nb, err := TrainNB(ds, NBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]int32{1}) != 0 || nb.Predict([]int32{18}) != 1 {
		t.Fatal("NB failed a separable problem")
	}
	empty := mustDataset(t, []int{20}, []bool{true}, 2)
	if _, err := TrainNB(empty, NBConfig{}); err == nil {
		t.Fatal("empty dataset: want error")
	}
}

func TestTrainNBCategorical(t *testing.T) {
	ds := mustDataset(t, []int{3}, []bool{false}, 2)
	for v, c := range map[int32]int{0: 0, 1: 1, 2: 0} {
		for rep := 0; rep < 25; rep++ {
			if err := ds.Add([]int32{v}, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	nb, err := TrainNB(ds, NBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range map[int32]int{0: 0, 1: 1, 2: 0} {
		if got := nb.Predict([]int32{v}); got != c {
			t.Fatalf("Predict(%d) = %d, want %d", v, got, c)
		}
	}
}

func TestNBWeightsMatter(t *testing.T) {
	ds := mustDataset(t, []int{2}, []bool{false}, 2)
	for rep := 0; rep < 10; rep++ {
		if err := ds.Add([]int32{0}, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Add([]int32{0}, 1, 200); err != nil {
		t.Fatal(err)
	}
	nb, err := TrainNB(ds, NBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]int32{0}) != 1 {
		t.Fatal("weighted majority ignored")
	}
}

func TestNBAdjustHook(t *testing.T) {
	ds := mustDataset(t, []int{2}, []bool{false}, 2)
	for rep := 0; rep < 20; rep++ {
		if err := ds.Add([]int32{0}, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 5; rep++ {
		if err := ds.Add([]int32{0}, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	swap := func(obs []float64) []float64 { return []float64{obs[1], obs[0]} }
	nb, err := TrainNB(ds, NBConfig{Adjust: swap})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]int32{0}) != 1 {
		t.Fatal("adjust hook ignored")
	}
}

// End-to-end on a PG publication: NB must land in the same utility band as
// the honest tree — above pessimistic, near optimistic.
func TestNBPGUtility(t *testing.T) {
	d, classOf := salFixture(t, 30000, 21)
	const k = 6
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: k, P: 0.3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := TrainNBPG(pub, classOf, 2, NBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nbAcc := Accuracy(nb.Predict, d, classOf)

	rng := rand.New(rand.NewSource(23))
	sub, err := d.RandomSubset(d.Len()/k, rng)
	if err != nil {
		t.Fatal(err)
	}
	randomized := sub.Clone()
	for i := 0; i < randomized.Len(); i++ {
		randomized.SetSensitive(i, int32(rng.Intn(50)))
	}
	pes, err := TrainTable(randomized, classOf, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pesAcc := Accuracy(pes.Predict, d, classOf)
	if nbAcc <= pesAcc+0.02 {
		t.Fatalf("NB accuracy %v not above pessimistic %v", nbAcc, pesAcc)
	}
	if nbAcc > 0.95 {
		t.Fatalf("NB accuracy %v implausibly high", nbAcc)
	}
}

func TestTrainNBPGErrors(t *testing.T) {
	d, classOf := salFixture(t, 1000, 24)
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 4, P: 0.3, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := pg.FromColumns(*pub, &pg.RowColumns{D: pub.Schema.D()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainNBPG(empty, classOf, 2, NBConfig{}); err == nil {
		t.Fatal("empty publication: want error")
	}
	if _, err := TrainNBPG(pub, func(int32) int { return 9 }, 2, NBConfig{}); err == nil {
		t.Fatal("bad classOf: want error")
	}
}
