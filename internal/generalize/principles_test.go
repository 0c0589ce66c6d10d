package generalize

import (
	"testing"

	"pgpub/internal/dataset"
)

// figure1Table reproduces the QI-group of the paper's Figure 1: 11 tuples
// with identical QI values whose diseases are 3x pneumonia, 2x HIV,
// 2x bronchitis, 2x lung-cancer, 1x SARS, 1x tuberculosis.
func figure1Table(t *testing.T) (*dataset.Table, *Groups) {
	t.Helper()
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustAttribute("QI", "same")},
		dataset.MustAttribute("Disease",
			"pneumonia", "HIV", "bronchitis", "lung-cancer", "SARS", "tuberculosis"),
	)
	tbl := dataset.NewTable(s)
	for _, d := range []string{
		"pneumonia", "pneumonia", "pneumonia",
		"HIV", "HIV",
		"bronchitis", "bronchitis",
		"lung-cancer", "lung-cancer",
		"SARS", "tuberculosis",
	} {
		if err := tbl.AppendLabels("same", d); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]int, tbl.Len())
	for i := range rows {
		rows[i] = i
	}
	g := &Groups{Keys: [][]int32{{0}}, Rows: [][]int{rows}}
	return tbl, g
}

func TestFigure1CLDiversity(t *testing.T) {
	tbl, g := figure1Table(t)
	// The paper: the group obeys (1/2, 3)-diversity since 3 <= 1/2*(2+2+1+1).
	if !IsCLDiverse(tbl, g, 0.5, 3) {
		t.Fatal("Figure 1 group must satisfy (1/2,3)-diversity")
	}
	// But not (1/2, 4): 3 > 1/2*(2+1+1).
	if IsCLDiverse(tbl, g, 0.5, 4) {
		t.Fatal("Figure 1 group must violate (1/2,4)-diversity")
	}
	// Distinct diversity: 6 distinct diseases (the paper's u = 6).
	if got := DistinctDiversity(tbl, g); got != 6 {
		t.Fatalf("DistinctDiversity = %d, want 6", got)
	}
	if !IsDistinctLDiverse(tbl, g, 6) || IsDistinctLDiverse(tbl, g, 7) {
		t.Fatal("distinct diversity thresholds wrong")
	}
}

func TestGroupSatisfiesCLEdges(t *testing.T) {
	// Fewer than l distinct values always fails.
	if GroupSatisfiesCL([]int{5, 1}, 10, 3) {
		t.Fatal("l' < l must fail")
	}
	if GroupSatisfiesCL(nil, 1, 1) {
		t.Fatal("empty counts must fail")
	}
	if GroupSatisfiesCL([]int{3}, 0.5, 0) {
		t.Fatal("l < 1 must fail")
	}
	// l = 1: n1 <= c * (sum of all counts).
	if !GroupSatisfiesCL([]int{2, 2}, 0.5, 1) {
		t.Fatal("2 <= 0.5*4 must hold")
	}
	if GroupSatisfiesCL([]int{3, 1}, 0.5, 1) {
		t.Fatal("3 > 0.5*4 must fail")
	}
}

func TestEntropyLDiversity(t *testing.T) {
	tbl, g := figure1Table(t)
	// Entropy of (3,2,2,2,1,1)/11 is about 1.70 nats; log(5) ~ 1.61,
	// log(6) ~ 1.79.
	if !IsEntropyLDiverse(tbl, g, 5) {
		t.Fatal("group should be entropy 5-diverse")
	}
	if IsEntropyLDiverse(tbl, g, 6) {
		t.Fatal("group should not be entropy 6-diverse")
	}
	if IsEntropyLDiverse(tbl, g, 0) {
		t.Fatal("l < 1 must fail")
	}
	if IsEntropyLDiverse(tbl, &Groups{}, 1) {
		t.Fatal("no groups must fail")
	}
	// A uniform group is entropy-l-diverse exactly up to its distinct count.
	if !IsEntropyLDiverse(tbl, g, 1) {
		t.Fatal("every non-empty partition is entropy 1-diverse")
	}
}

func TestPrinciplesOnEmptyGroups(t *testing.T) {
	tbl, _ := figure1Table(t)
	empty := &Groups{}
	if DistinctDiversity(tbl, empty) != 0 {
		t.Fatal("DistinctDiversity of empty must be 0")
	}
	if IsDistinctLDiverse(tbl, empty, 1) || IsCLDiverse(tbl, empty, 1, 1) {
		t.Fatal("empty partition satisfies nothing")
	}
}
