package pg

import (
	"strings"
	"testing"

	"pgpub/internal/dataset"
)

func TestReadCSVRoundTrip(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pub.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(d.Schema, strings.NewReader(sb.String()), pub.P)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != pub.Len() || got.K != pub.K || got.P != pub.P {
		t.Fatalf("round trip: len %d/%d K %d/%d P %v/%v",
			got.Len(), pub.Len(), got.K, pub.K, got.P, pub.P)
	}
	for i := 0; i < pub.Len(); i++ {
		g, w := got.Columns().Row(i), pub.Columns().Row(i)
		if !g.Box.Equal(w.Box) {
			t.Fatalf("row %d box differs: %v vs %v", i, g.Box, w.Box)
		}
		if g.Value != w.Value || g.G != w.G {
			t.Fatalf("row %d value/G differs", i)
		}
		if g.SourceRow != -1 {
			t.Fatal("loaded rows must not claim a source row")
		}
	}
}

func TestReadCSVRoundTripSAL(t *testing.T) {
	// Full-scale round trip through the SAL schema (larger label space).
	d := dataset.Hospital() // reuse hospital for speed; SAL covered elsewhere
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 4, P: 0.5, Algorithm: KD, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pub.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(d.Schema, strings.NewReader(sb.String()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	d := dataset.Hospital()
	good := "Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,2\n*,F,*,pneumonia,3\n"
	if _, err := ReadCSV(d.Schema, strings.NewReader(good), 0.3); err != nil {
		t.Fatalf("good CSV rejected: %v", err)
	}
	cases := []struct {
		name, in string
		p        float64
	}{
		{"bad p", good, 1.5},
		{"empty", "", 0.3},
		{"bad header", "X,Gender,Zipcode,Disease,G\n", 0.3},
		{"no rows", "Age,Gender,Zipcode,Disease,G\n", 0.3},
		{"bad disease", "Age,Gender,Zipcode,Disease,G\n*,M,*,plague,2\n", 0.3},
		{"bad G", "Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,zero\n", 0.3},
		{"zero G", "Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,0\n", 0.3},
		{"bad label", "Age,Gender,Zipcode,Disease,G\nfifty,M,*,bronchitis,2\n", 0.3},
		{"bad interval", "Age,Gender,Zipcode,Disease,G\n[99-101],M,*,bronchitis,2\n", 0.3},
		{"inverted interval", "Age,Gender,Zipcode,Disease,G\n[64-20],M,*,bronchitis,2\n", 0.3},
		{"overlap (G3)", "Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,2\n*,M,*,pneumonia,2\n", 0.3},
		{"short record", "Age,Gender,Zipcode,Disease,G\n*,M,*\n", 0.3},
	}
	for _, c := range cases {
		if _, err := ReadCSV(d.Schema, strings.NewReader(c.in), c.p); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestParseBoxLabel(t *testing.T) {
	a := dataset.MustIntAttribute("Age", 20, 89)
	lo, hi, err := parseBoxLabel("*", a)
	if err != nil || lo != 0 || hi != 69 {
		t.Fatalf("* -> [%d,%d], %v", lo, hi, err)
	}
	lo, hi, err = parseBoxLabel("25", a)
	if err != nil || lo != 5 || hi != 5 {
		t.Fatalf("25 -> [%d,%d], %v", lo, hi, err)
	}
	lo, hi, err = parseBoxLabel("[20-64]", a)
	if err != nil || lo != 0 || hi != 44 {
		t.Fatalf("[20-64] -> [%d,%d], %v", lo, hi, err)
	}
	if _, _, err := parseBoxLabel("nope", a); err == nil {
		t.Fatal("garbage label: want error")
	}
	if _, _, err := parseBoxLabel("[20:64]", a); err == nil {
		t.Fatal("wrong separator: want error")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pub.Metadata(0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0.3 || m.K != 2 || m.Rows != pub.Len() || m.Algorithm != "kd" {
		t.Fatalf("metadata = %+v", m)
	}
	if m.Guarantee == nil || m.Guarantee.Rho2 <= 0.2 || m.Guarantee.Delta <= 0 {
		t.Fatalf("guarantee block = %+v", m.Guarantee)
	}
	var sb strings.Builder
	if err := m.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetadata(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.P != m.P || got.K != m.K || got.Guarantee.Rho2 != m.Guarantee.Rho2 {
		t.Fatalf("round trip = %+v", got)
	}
	// Without a guarantee request the block is omitted.
	m2, err := pub.Metadata(0, 0)
	if err != nil || m2.Guarantee != nil {
		t.Fatalf("metadata without guarantee: %+v, %v", m2, err)
	}
	// Invalid guarantee parameters propagate.
	if _, err := pub.Metadata(0.1, 1.5); err == nil {
		t.Fatal("bad rho1: want error")
	}
}

func TestReadMetadataErrors(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"retention_probability": 2, "k": 2, "rows": 1, "algorithm": "kd"}`,
		`{"retention_probability": 0.3, "k": 0, "rows": 1, "algorithm": "kd"}`,
		`{"retention_probability": 0.3, "k": 2, "rows": -1, "algorithm": "kd"}`,
		`{"retention_probability": 0.3, "k": 2, "rows": 1, "algorithm": "mondrian"}`,
		`{"retention_probability": 0.3, "k": 2, "rows": 1}`,
		`{"unknown_field": 1}`,
	}
	for _, in := range cases {
		if _, err := ReadMetadata(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMetadata(%q): want error", in)
		}
	}
}
