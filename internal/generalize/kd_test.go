package generalize

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgpub/internal/dataset"
)

func TestKDPartitionBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl, _ := randomTable(200, rng)
	res, err := KDPartitionParallel(tbl, 8, 0)
	if err != nil {
		t.Fatalf("KDPartitionParallel: %v", err)
	}
	if len(res.Cells) != len(res.Rows) {
		t.Fatal("cells/rows length mismatch")
	}
	covered := map[int]bool{}
	for ci, rows := range res.Rows {
		if len(rows) < 8 {
			t.Fatalf("cell %d has %d < 8 rows", ci, len(rows))
		}
		for _, i := range rows {
			if covered[i] {
				t.Fatalf("row %d in two cells", i)
			}
			covered[i] = true
			if !res.Cells[ci].Covers(tbl.QIVector(i)) {
				t.Fatalf("cell %d does not cover its row %d", ci, i)
			}
		}
	}
	if len(covered) != tbl.Len() {
		t.Fatalf("cells cover %d of %d rows", len(covered), tbl.Len())
	}
	// Cells are pairwise disjoint (Property G3): every point of the 16x8
	// domain lies in exactly one cell.
	for a := int32(0); a < 16; a++ {
		for b := int32(0); b < 8; b++ {
			hits := 0
			for _, c := range res.Cells {
				if c.Covers([]int32{a, b}) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("point (%d,%d) in %d cells, want 1", a, b, hits)
			}
		}
	}
	if len(res.Cells) < 4 {
		t.Fatalf("expected multiple cells, got %d", len(res.Cells))
	}
}

// KD cells must cover the entire QI space, not just the data's bounding box:
// that is what makes attack step A1 find a crucial tuple for ANY external
// QI vector.
func TestKDPartitionCoversFullSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tbl, _ := randomTable(100, rng)
	res, err := KDPartitionParallel(tbl, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(v []int32) {
		hits := 0
		for _, c := range res.Cells {
			if c.Covers(v) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("vector %v covered by %d cells, want exactly 1", v, hits)
		}
	}
	// Corners of the domain and random interior points.
	probe([]int32{0, 0})
	probe([]int32{15, 7})
	probe([]int32{0, 7})
	probe([]int32{15, 0})
	for trial := 0; trial < 50; trial++ {
		probe([]int32{int32(rng.Intn(16)), int32(rng.Intn(8))})
	}
}

func TestKDPartitionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl, _ := randomTable(5, rng)
	if _, err := KDPartitionParallel(tbl, 0, 0); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := KDPartitionParallel(tbl, 6, 0); err == nil {
		t.Fatal("k > |D|: want error")
	}
}

func TestKDPartitionSingleCell(t *testing.T) {
	// Identical rows cannot be split: one cell spanning the whole space.
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("A", 0, 9)},
		dataset.MustAttribute("S", "x", "y"),
	)
	tbl := dataset.NewTable(s)
	for i := 0; i < 6; i++ {
		tbl.MustAppend([]int32{4, int32(i % 2)})
	}
	res, err := KDPartitionParallel(tbl, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	if res.Cells[0].Lo[0] != 0 || res.Cells[0].Hi[0] != 9 {
		t.Fatalf("cell = [%d,%d], want the full domain [0,9]",
			res.Cells[0].Lo[0], res.Cells[0].Hi[0])
	}
}

// Property: for random tables and k, KD produces a disjoint exact cover of
// the space with all groups >= k.
func TestKDPartitionInvariants(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		tbl, _ := randomTable(n, rng)
		k := int(kRaw%10) + 1
		if k > n {
			k = n
		}
		res, err := KDPartitionParallel(tbl, k, 0)
		if err != nil {
			return false
		}
		total := 0
		for _, rows := range res.Rows {
			if len(rows) < k {
				return false
			}
			total += len(rows)
		}
		if total != n {
			return false
		}
		// Exact cover of the whole space at random probes.
		for trial := 0; trial < 20; trial++ {
			v := []int32{int32(rng.Intn(16)), int32(rng.Intn(8))}
			hits := 0
			for _, c := range res.Cells {
				if c.Covers(v) {
					hits++
				}
			}
			if hits != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxHelpers(t *testing.T) {
	a := Box{Lo: []int32{0, 0}, Hi: []int32{4, 4}}
	b := Box{Lo: []int32{5, 0}, Hi: []int32{9, 4}}
	if !a.Covers([]int32{4, 4}) || a.Covers([]int32{5, 4}) {
		t.Fatal("Covers boundary wrong")
	}
	if !a.Equal(Box{Lo: []int32{0, 0}, Hi: []int32{4, 4}}) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
}

func TestBoxOfRecoding(t *testing.T) {
	h := dataset.Hospital()
	hiers := hospitalHiers(h.Schema)
	top, _ := TopRecoding(h.Schema, hiers)
	g := top.Generalize(h.QIVector(0))
	box := top.BoxOf(g)
	for j := range box.Lo {
		if box.Lo[j] != 0 || int(box.Hi[j]) != h.Schema.QI[j].Size()-1 {
			t.Fatalf("top box attr %d = [%d,%d], want full domain", j, box.Lo[j], box.Hi[j])
		}
	}
	id := identityRecoding(t, h.Schema, hiers)
	gv := id.Generalize(h.QIVector(2))
	box = id.BoxOf(gv)
	for j := range box.Lo {
		if box.Lo[j] != h.QIVector(2)[j] || box.Hi[j] != h.QIVector(2)[j] {
			t.Fatal("identity box must be degenerate at the value")
		}
	}
}

// KDPartitionParallel must produce bit-identical output at every spawn
// depth, fanned out or serial (depth 0).
func TestKDParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl, _ := randomTable(300, rng)
	serial, err := KDPartitionParallel(tbl, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 3, 6} {
		par, err := KDPartitionParallel(tbl, 5, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(par.Cells) != len(serial.Cells) {
			t.Fatalf("depth %d: %d cells vs %d", depth, len(par.Cells), len(serial.Cells))
		}
		for i := range serial.Cells {
			if !par.Cells[i].Equal(serial.Cells[i]) {
				t.Fatalf("depth %d: cell %d differs", depth, i)
			}
			if len(par.Rows[i]) != len(serial.Rows[i]) {
				t.Fatalf("depth %d: cell %d row count differs", depth, i)
			}
			for j := range serial.Rows[i] {
				if par.Rows[i][j] != serial.Rows[i][j] {
					t.Fatalf("depth %d: cell %d rows differ", depth, i)
				}
			}
		}
	}
	if _, err := KDPartitionParallel(tbl, 5, -1); err == nil {
		t.Fatal("negative spawn depth: want error")
	}
	if _, err := KDPartitionParallel(tbl, 0, 1); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := KDPartitionParallel(tbl, 1000, 1); err == nil {
		t.Fatal("k > |D|: want error")
	}
}
