package mining

import (
	"math/rand"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// salFixture generates a SAL sample and the m=2 categorizer once per test.
func salFixture(t *testing.T, n int, seed int64) (*dataset.Table, func(int32) int) {
	t.Helper()
	d, err := sal.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	classOf, err := sal.Categorizer(2)
	if err != nil {
		t.Fatal(err)
	}
	return d, classOf
}

func TestTableDatasetErrors(t *testing.T) {
	d, classOf := salFixture(t, 100, 1)
	empty := dataset.NewTable(d.Schema)
	if _, err := TableDataset(empty, classOf, 2); err == nil {
		t.Fatal("empty table: want error")
	}
	if _, err := TrainTable(empty, classOf, 2, Config{}); err == nil {
		t.Fatal("empty table train: want error")
	}
}

// The optimistic yardstick: a tree trained on clean SAL data must beat the
// majority-class baseline on the microdata.
func TestOptimisticBeatsBaseline(t *testing.T) {
	d, classOf := salFixture(t, 20000, 2)
	clf, err := TrainTable(d, classOf, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(clf.Predict, d, classOf)
	// Majority baseline.
	counts := [2]int{}
	for i := 0; i < d.Len(); i++ {
		counts[classOf(d.Sensitive(i))]++
	}
	base := float64(max(counts[0], counts[1])) / float64(d.Len())
	if acc <= base+0.02 {
		t.Fatalf("optimistic accuracy %v not better than baseline %v", acc, base)
	}
}

// The pessimistic yardstick: training on fully randomized labels cannot do
// meaningfully better than the majority class of the randomized sample.
func TestPessimisticNearBaseline(t *testing.T) {
	d, classOf := salFixture(t, 20000, 3)
	rng := rand.New(rand.NewSource(4))
	randomized := d.Clone()
	for i := 0; i < randomized.Len(); i++ {
		randomized.SetSensitive(i, int32(rng.Intn(randomized.Schema.SensitiveDomain())))
	}
	clf, err := TrainTable(randomized, classOf, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(clf.Predict, d, classOf)
	counts := [2]int{}
	for i := 0; i < d.Len(); i++ {
		counts[classOf(d.Sensitive(i))]++
	}
	base := float64(max(counts[0], counts[1])) / float64(d.Len())
	// The randomized labels are ~uniform, so the tree's majority class is
	// essentially a coin flip between brackets; accuracy must be within
	// noise of predicting one class everywhere — and far below optimistic.
	if acc > base+0.05 {
		t.Fatalf("pessimistic accuracy %v suspiciously above baseline %v", acc, base)
	}
}

// PG mining end-to-end against the paper's yardsticks (Section VII-B): both
// optimistic and pessimistic train on a random subset of size |D|/k; PG must
// land well above pessimistic and close to optimistic — the headline utility
// claim of Figures 2 and 3.
func TestPGTreeUtilityOrdering(t *testing.T) {
	const k = 6
	d, classOf := salFixture(t, 30000, 5)
	hiers := sal.Hierarchies(d.Schema)

	pub, err := pg.Publish(d, hiers, pg.Config{
		K: k, P: 0.3, Seed: 6, Algorithm: pg.KD,
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	pgClf, err := TrainPG(pub, classOf, 2, Config{})
	if err != nil {
		t.Fatalf("TrainPG: %v", err)
	}
	pgAcc := Accuracy(pgClf.Predict, d, classOf)

	rng := rand.New(rand.NewSource(7))
	sub, err := d.RandomSubset(d.Len()/k, rng)
	if err != nil {
		t.Fatal(err)
	}
	optClf, err := TrainTable(sub, classOf, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	optAcc := Accuracy(optClf.Predict, d, classOf)

	randomized := sub.Clone()
	for i := 0; i < randomized.Len(); i++ {
		randomized.SetSensitive(i, int32(rng.Intn(50)))
	}
	pesClf, err := TrainTable(randomized, classOf, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pesAcc := Accuracy(pesClf.Predict, d, classOf)

	if !(pgAcc > pesAcc+0.01) {
		t.Fatalf("PG accuracy %v not above pessimistic %v", pgAcc, pesAcc)
	}
	// PG may legitimately edge out optimistic: its G-weighted cells
	// summarize the full microdata while optimistic sees only |D|/k rows.
	if pgAcc > optAcc+0.06 {
		t.Fatalf("PG accuracy %v implausibly above optimistic %v", pgAcc, optAcc)
	}
	// "The utility of PG stays close to optimistic" — allow a modest gap.
	if optAcc-pgAcc > 0.12 {
		t.Fatalf("PG accuracy %v too far below optimistic %v", pgAcc, optAcc)
	}
}

func TestTrainPGErrors(t *testing.T) {
	d, classOf := salFixture(t, 2000, 8)
	hiers := sal.Hierarchies(d.Schema)
	pub, err := pg.Publish(d, hiers, pg.Config{K: 4, P: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := pg.FromColumns(*pub, &pg.RowColumns{D: pub.Schema.D()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainPG(empty, classOf, 2, Config{}); err == nil {
		t.Fatal("empty publication: want error")
	}
	// classOf returning out-of-range classes must be caught.
	bad := func(int32) int { return 7 }
	if _, err := TrainPG(pub, bad, 2, Config{}); err == nil {
		t.Fatal("bad classOf: want error")
	}
}

// With P = 0 reconstruction is skipped and training still succeeds — the
// pessimistic-like degenerate case.
func TestTrainPGZeroRetention(t *testing.T) {
	d, classOf := salFixture(t, 3000, 10)
	hiers := sal.Hierarchies(d.Schema)
	pub, err := pg.Publish(d, hiers, pg.Config{K: 4, P: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainPG(pub, classOf, 2, Config{})
	if err != nil {
		t.Fatalf("TrainPG(p=0): %v", err)
	}
	acc := Accuracy(clf.Predict, d, classOf)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

func TestAccuracyEmptyTable(t *testing.T) {
	d, classOf := salFixture(t, 10, 12)
	empty := dataset.NewTable(d.Schema)
	if got := Accuracy(func([]int32) int { return 0 }, empty, classOf); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
