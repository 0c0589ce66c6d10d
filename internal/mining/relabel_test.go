package mining

import (
	"testing"
)

// buildSimpleTree grows a depth-1 threshold tree on feature 0 of a 10-value
// ordered domain: codes <= 4 are class 0, codes >= 5 are class 1.
func buildSimpleTree(t *testing.T) *Tree {
	t.Helper()
	ds := mustDataset(t, []int{10}, []bool{true}, 2)
	for v := int32(0); v < 10; v++ {
		c := 0
		if v >= 5 {
			c = 1
		}
		for rep := 0; rep < 10; rep++ {
			if err := ds.Add([]int32{v}, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree, err := Build(ds, Config{MinLeafWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestRelabelFlipsLabels(t *testing.T) {
	tree := buildSimpleTree(t)
	// An inverted labelling dataset: the structure stands, but labels swap.
	inv := mustDataset(t, []int{10}, []bool{true}, 2)
	for v := int32(0); v < 10; v++ {
		c := 1
		if v >= 5 {
			c = 0
		}
		for rep := 0; rep < 10; rep++ {
			if err := inv.Add([]int32{v}, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Relabel(inv, 1, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]int32{0}) != 1 || tree.Predict([]int32{9}) != 0 {
		t.Fatal("relabel did not flip leaf labels")
	}
}

func TestRelabelFallsBackToParent(t *testing.T) {
	tree := buildSimpleTree(t)
	// A labelling dataset that only reaches the left branch: right leaves
	// get no mass and must inherit the (relabelled) parent's label.
	left := mustDataset(t, []int{10}, []bool{true}, 2)
	for rep := 0; rep < 20; rep++ {
		if err := left.Add([]int32{0}, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Relabel(left, 5, nil); err != nil {
		t.Fatal(err)
	}
	// All mass is class 1 at the root, so both branches must predict 1.
	if tree.Predict([]int32{0}) != 1 || tree.Predict([]int32{9}) != 1 {
		t.Fatal("starved leaves must inherit the root label")
	}
}

func TestRelabelWithAdjust(t *testing.T) {
	tree := buildSimpleTree(t)
	same := mustDataset(t, []int{10}, []bool{true}, 2)
	for v := int32(0); v < 10; v++ {
		c := 0
		if v >= 5 {
			c = 1
		}
		if err := same.Add([]int32{v}, c, 10); err != nil {
			t.Fatal(err)
		}
	}
	swap := func(obs []float64) []float64 { return []float64{obs[1], obs[0]} }
	if err := tree.Relabel(same, 1, swap); err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]int32{0}) != 1 || tree.Predict([]int32{9}) != 0 {
		t.Fatal("adjust hook ignored during relabel")
	}
}

func TestRelabelEmptyDataset(t *testing.T) {
	tree := buildSimpleTree(t)
	empty := mustDataset(t, []int{10}, []bool{true}, 2)
	if err := tree.Relabel(empty, 1, nil); err == nil {
		t.Fatal("empty relabel dataset: want error")
	}
}

func TestRelabelCategoricalUnseenCode(t *testing.T) {
	// A categorical tree; relabel rows whose codes miss some children.
	ds := mustDataset(t, []int{3}, []bool{false}, 2)
	for v := int32(0); v < 3; v++ {
		c := int(v % 2)
		for rep := 0; rep < 20; rep++ {
			if err := ds.Add([]int32{v}, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree, err := Build(ds, Config{MinLeafWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	relabel := mustDataset(t, []int{3}, []bool{false}, 2)
	for rep := 0; rep < 10; rep++ {
		if err := relabel.Add([]int32{0}, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Relabel(relabel, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Code 0's leaf saw only class 1 in the relabel set.
	if tree.Predict([]int32{0}) != 1 {
		t.Fatal("relabel of categorical child failed")
	}
}
