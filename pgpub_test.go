package pgpub

import (
	"math"
	"strings"
	"testing"
)

// The facade must support the full publish → attack → mine workflow without
// touching internal packages.
func TestFacadeEndToEnd(t *testing.T) {
	// Hospital walkthrough.
	d := Hospital()
	if d.Len() != 8 {
		t.Fatalf("hospital Len = %d", d.Len())
	}
	hiers := HospitalHierarchies(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if pub.K != 2 || pub.Len() > 4 {
		t.Fatalf("K=%d len=%d", pub.K, pub.Len())
	}
	var sb strings.Builder
	if err := pub.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",G") {
		t.Fatal("CSV missing the G column")
	}

	// Attack through the facade.
	ext, err := NewExternal(d, HospitalVoterQI())
	if err != nil {
		t.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	q, err := PredicateOf(domain, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LinkAttack(pub, ext, 3, Adversary{
		Background: UniformPDF(domain),
		Corrupted:  map[int]bool{2: true, 4: true},
	}, q)
	if err != nil {
		t.Fatalf("LinkAttack: %v", err)
	}
	if res.H > HTop(0.25, 1/float64(domain), 2, domain)+1e-9 {
		t.Fatal("h exceeds the facade-computed bound")
	}

	// Conventional baseline.
	rec, err := TopRecoding(d.Schema, hiers)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := PublishConventional(d, rec)
	if err != nil {
		t.Fatal(err)
	}
	reconstructed, err := conv.TotalCorruptionAttack(ext, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reconstructed != d.Sensitive(ext.RowOf(1)) {
		t.Fatal("Lemma 2 reconstruction failed through the facade")
	}
}

func TestFacadeGuaranteeSolvers(t *testing.T) {
	p, err := MaxRetentionRho12(0.1, 0.2, 0.45, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.2996) > 0.01 {
		t.Fatalf("solved p = %v, want ~0.30", p)
	}
	r2, err := MinRho2(p, 0.1, 0.2, 6, 50)
	if err != nil || r2 > 0.45+1e-6 {
		t.Fatalf("MinRho2 = %v, %v", r2, err)
	}
	pd, err := MaxRetentionDelta(0.1, 0.24, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := MinDelta(pd, 0.1, 6, 50)
	if err != nil || dl > 0.24+1e-6 {
		t.Fatalf("MinDelta = %v, %v", dl, err)
	}
}

func TestFacadeSALMining(t *testing.T) {
	d, err := GenerateSAL(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	classOf, err := SALCategorizer(2)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Publish(d, SALHierarchies(d.Schema), Config{K: 6, P: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainPG(pub, classOf, 2, MiningConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(clf.Predict, d, classOf)
	if acc <= 0.4 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	opt, err := TrainTable(d, classOf, 2, MiningConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a := Accuracy(opt.Predict, d, classOf); a <= acc-0.5 {
		t.Fatalf("optimistic accuracy %v vs PG %v", a, acc)
	}
}

func TestFacadeSchemaBuilders(t *testing.T) {
	age, err := NewIntAttribute("Age", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewAttribute("G", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema([]*Attribute{age}, g)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	if err := tb.AppendLabels("3", "a"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(s, strings.NewReader(sb.String()))
	if err != nil || back.Len() != 1 {
		t.Fatalf("CSV round trip: %v", err)
	}
	if _, err := NewIntervalHierarchy(10, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBalancedHierarchy(16, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlatHierarchy(2); err != nil {
		t.Fatal(err)
	}
	if _, err := ExcludingPDF(10, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	d := Hospital()
	hiers := HospitalHierarchies(d.Schema)
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		pub, err := Publish(d, hiers, Config{K: 2, P: 0.3, Algorithm: alg, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := pub.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestFacadeReleaseIO(t *testing.T) {
	d := Hospital()
	pub, err := Publish(d, HospitalHierarchies(d.Schema), Config{K: 2, P: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var csvOut, metaOut strings.Builder
	if err := pub.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	m, err := pub.Metadata(0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(&metaOut); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadReleaseMetadata(strings.NewReader(metaOut.String()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadPublishedCSV(d.Schema, strings.NewReader(csvOut.String()), meta.P)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != pub.Len() || back.P != pub.P {
		t.Fatal("release round trip mismatch")
	}
}

func TestFacadeInferSchema(t *testing.T) {
	schema, tbl, err := InferSchema(strings.NewReader("Age,Class\n20,x\n30,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if schema.D() != 1 || tbl.Len() != 2 {
		t.Fatal("inference shape wrong")
	}
}

func TestFacadeDPAndAggregates(t *testing.T) {
	eps := LocalDPEpsilon(0.3, 50)
	if eps <= 0 {
		t.Fatal("epsilon must be positive at p=0.3")
	}
	p, err := RetentionForEpsilon(eps, 50)
	if err != nil || math.Abs(p-0.3) > 1e-12 {
		t.Fatalf("DP round trip: %v, %v", p, err)
	}
	if Amplification(0.3, 50) <= 1 {
		t.Fatal("gamma must exceed 1")
	}
	d, err := GenerateSAL(4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Publish(d, SALHierarchies(d.Schema), Config{K: 5, P: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := CountQuery{QI: make([]QueryRange, d.Schema.D())}
	for j, a := range d.Schema.QI {
		q.QI[j] = QueryRange{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	truth, err := TrueSum(d, q, IncomeMidpoint)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateSum(pub, q, IncomeMidpoint)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth)/truth > 0.15 {
		t.Fatalf("facade SUM off: est %v truth %v", est, truth)
	}
	if _, err := EstimateAvg(pub, q, IncomeMidpoint); err != nil {
		t.Fatal(err)
	}
}
