package attack

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/sal"
)

func hospitalHiers(s *dataset.Schema) []*hierarchy.Hierarchy {
	return []*hierarchy.Hierarchy{
		hierarchy.MustInterval(s.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(s.QI[1].Size()),
		hierarchy.MustInterval(s.QI[2].Size(), 5, 20),
	}
}

func hospitalExternal(t *testing.T) (*dataset.Table, *External) {
	t.Helper()
	d := dataset.Hospital()
	ext, err := NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		t.Fatalf("NewExternal: %v", err)
	}
	return d, ext
}

func TestNewExternal(t *testing.T) {
	_, ext := hospitalExternal(t)
	if ext.Len() != 9 {
		t.Fatalf("|E| = %d, want 9", ext.Len())
	}
	// Emily (4) is extraneous with sensitive ∅.
	if !ext.IsExtraneous(4) {
		t.Fatal("Emily must be extraneous")
	}
	if _, ok := ext.SensitiveOf(4); ok {
		t.Fatal("extraneous individuals have no sensitive value")
	}
	if ext.RowOf(4) != -1 {
		t.Fatal("extraneous RowOf must be -1")
	}
	// Bob (0) owns row 0 with bronchitis.
	v, ok := ext.SensitiveOf(0)
	if !ok || ext.Table().Schema.Sensitive.Label(v) != "bronchitis" {
		t.Fatal("Bob's corruption oracle wrong")
	}
}

func TestNewExternalErrors(t *testing.T) {
	d := dataset.Hospital()
	voters := dataset.HospitalVoterQI()
	// Owner outside the list.
	bad := d.Clone()
	bad.Owners[0] = 99
	if _, err := NewExternal(bad, voters); err == nil {
		t.Fatal("owner outside voter list: want error")
	}
	// Owner owning two rows.
	bad = d.Clone()
	bad.Owners[1] = bad.Owners[0]
	if _, err := NewExternal(bad, voters); err == nil {
		t.Fatal("duplicate owner: want error")
	}
	// Inconsistent QI between voter list and microdata.
	badVoters := make([][]int32, len(voters))
	copy(badVoters, voters)
	badVoters[0] = append([]int32(nil), voters[0]...)
	badVoters[0][0]++
	if _, err := NewExternal(d, badVoters); err == nil {
		t.Fatal("QI mismatch: want error")
	}
	// Wrong arity.
	badVoters[0] = []int32{1}
	if _, err := NewExternal(d, badVoters); err == nil {
		t.Fatal("QI arity mismatch: want error")
	}
}

// publishHospital publishes the hospital microdata with fixed parameters.
func publishHospital(t *testing.T, seed int64, p float64, k int) *pg.Published {
	t.Helper()
	d := dataset.Hospital()
	pub, err := pg.Publish(d, hospitalHiers(d.Schema), pg.Config{K: k, P: p, Seed: seed})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return pub
}

func TestLinkAttackExample1Shape(t *testing.T) {
	// Example 1 of the paper: attack Ellie (ID 3) with corrupted
	// {Debbie (2), Emily (4)}, Q = "a respiratory disease".
	d, ext := hospitalExternal(t)
	pub := publishHospital(t, 42, 0.25, 2)
	domain := d.Schema.SensitiveDomain()
	sens := d.Schema.Sensitive
	q, err := privacy.PredicateOf(domain,
		sens.MustCode("bronchitis"), sens.MustCode("pneumonia"),
		sens.MustCode("SARS"), sens.MustCode("tuberculosis"))
	if err != nil {
		t.Fatal(err)
	}
	adv := Adversary{
		Background: privacy.Uniform(domain),
		Corrupted:  map[int]bool{2: true, 4: true},
	}
	res, err := LinkAttack(pub, ext, 3, adv, q)
	if err != nil {
		t.Fatalf("LinkAttack: %v", err)
	}
	// h respects the analytic bound with lambda = uniform skew.
	bound := privacy.HTop(pub.P, 1/float64(domain), pub.K, domain)
	if res.H > bound+1e-9 {
		t.Fatalf("h = %v exceeds h-top = %v", res.H, bound)
	}
	// Theorem 1: when the observed y does not satisfy Q, no growth at all.
	if !q.Holds(res.Y) && res.Posterior > res.Prior+1e-12 {
		t.Fatalf("y ∉ Q but posterior %v > prior %v", res.Posterior, res.Prior)
	}
	// The posterior pdf is a valid distribution.
	if err := res.PosteriorPDF.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkAttackCandidates(t *testing.T) {
	// Debbie (2), Ellie (3) and Emily (4) share the generalized block
	// [40-59]/F/[15-34] under 20-wide bands; attacking Ellie should find
	// candidates Debbie and Emily whenever the recoding keeps them together.
	d, ext := hospitalExternal(t)
	pub := publishHospital(t, 7, 0.25, 2)
	adv := Adversary{Background: privacy.Uniform(d.Schema.SensitiveDomain()), Corrupted: map[int]bool{}}
	q, _ := privacy.ExactReconstruction(d.Schema.SensitiveDomain(), d.Sensitive(ext.RowOf(3)))
	res, err := LinkAttack(pub, ext, 3, adv, q)
	if err != nil {
		t.Fatalf("LinkAttack: %v", err)
	}
	// e+1 >= t.G (the paper's remark after A2).
	if len(res.Candidates)+1 < res.Crucial.G {
		t.Fatalf("e+1 = %d < t.G = %d", len(res.Candidates)+1, res.Crucial.G)
	}
	for _, id := range res.Candidates {
		if id == 3 {
			t.Fatal("victim listed as candidate")
		}
		if !res.Crucial.Box.Covers(ext.QIOf(id)) {
			t.Fatalf("candidate %d not generalized by the crucial tuple", id)
		}
	}
}

func TestLinkAttackValidation(t *testing.T) {
	d, ext := hospitalExternal(t)
	pub := publishHospital(t, 1, 0.25, 2)
	domain := d.Schema.SensitiveDomain()
	uni := privacy.Uniform(domain)
	q, _ := privacy.ExactReconstruction(domain, 0)

	if _, err := LinkAttack(pub, ext, -1, Adversary{Background: uni}, q); err == nil {
		t.Fatal("victim out of range: want error")
	}
	if _, err := LinkAttack(pub, ext, 4, Adversary{Background: uni}, q); err == nil {
		t.Fatal("extraneous victim: want error")
	}
	if _, err := LinkAttack(pub, ext, 3, Adversary{Background: uni, Corrupted: map[int]bool{3: true}}, q); err == nil {
		t.Fatal("corrupted victim: want error")
	}
	if _, err := LinkAttack(pub, ext, 3, Adversary{Background: privacy.PDF{0.5, 0.4}}, q); err == nil {
		t.Fatal("invalid background: want error")
	}
	if _, err := LinkAttack(pub, ext, 3, Adversary{Background: privacy.Uniform(3)}, q); err == nil {
		t.Fatal("background domain mismatch: want error")
	}
	short, _ := privacy.ExactReconstruction(3, 0)
	if _, err := LinkAttack(pub, ext, 3, Adversary{Background: uni}, short); err == nil {
		t.Fatal("predicate domain mismatch: want error")
	}
	bad := Adversary{Background: uni, OthersBackground: func(int) privacy.PDF { return privacy.Uniform(2) }}
	if _, err := LinkAttack(pub, ext, 3, bad, q); err == nil {
		t.Fatal("others-background mismatch: want error")
	}
}

// The h bound of Inequality 20 must hold across random corruption sets,
// priors, seeds and parameters — the core soundness property of Section VI.
func TestHBoundHolds(t *testing.T) {
	d, ext := hospitalExternal(t)
	domain := d.Schema.SensitiveDomain()
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		p := float64(rng.Intn(90)) / 100
		k := 1 + rng.Intn(4)
		pub, err := pg.Publish(d, hospitalHiers(d.Schema),
			pg.Config{K: k, P: p, Seed: rng.Int63()})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		victim := []int{0, 1, 2, 3, 5, 6, 7, 8}[rng.Intn(8)]
		adv := Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{}}
		for id := 0; id < ext.Len(); id++ {
			if id != victim && rng.Float64() < 0.5 {
				adv.Corrupted[id] = true
			}
		}
		q, _ := privacy.ExactReconstruction(domain, int32(rng.Intn(domain)))
		res, err := LinkAttack(pub, ext, victim, adv, q)
		if err != nil {
			t.Fatalf("LinkAttack: %v", err)
		}
		bound := privacy.HTop(p, 1/float64(domain), k, domain)
		if res.H > bound+1e-9 {
			t.Fatalf("trial %d: h = %v > h-top = %v (p=%v k=%d)", trial, res.H, bound, p, k)
		}
	}
}

// Worst case of Definition 1's range: |C| = |E|-1. Even then the posterior
// growth respects Theorem 3 — the headline claim of the paper.
func TestWorstCaseCorruption(t *testing.T) {
	d, ext := hospitalExternal(t)
	domain := d.Schema.SensitiveDomain()
	rng := rand.New(rand.NewSource(99))
	const p, k, lambda = 0.3, 2, 0.1
	deltaBound, err := privacy.MinDelta(p, lambda, k, domain)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		pub, err := pg.Publish(d, hospitalHiers(d.Schema), pg.Config{K: k, P: p, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		victim := []int{0, 1, 2, 3, 5, 6, 7, 8}[rng.Intn(8)]
		adv := Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{}}
		for id := 0; id < ext.Len(); id++ {
			if id != victim {
				adv.Corrupted[id] = true
			}
		}
		// Predicate containing the observed y (Theorem 1 covers the rest).
		crt, ok := pub.FindCrucial(ext.QIOf(victim))
		if !ok {
			t.Fatal("no crucial tuple")
		}
		q, _ := privacy.ExactReconstruction(domain, crt.Value)
		res, err := LinkAttack(pub, ext, victim, adv, q)
		if err != nil {
			t.Fatal(err)
		}
		if growth := res.Posterior - res.Prior; growth > deltaBound+1e-9 {
			t.Fatalf("trial %d: growth %v exceeds Theorem-3 bound %v", trial, growth, deltaBound)
		}
	}
}

func TestLemma1Figure1(t *testing.T) {
	// Reconstruct the Figure 1 scenario over a 100-value disease domain:
	// 5 respiratory diseases and HIV appear in the victim's QI-group.
	labels := make([]string, 100)
	labels[0], labels[1], labels[2], labels[3], labels[4] = "pneumonia", "bronchitis", "lung-cancer", "SARS", "tuberculosis"
	labels[5] = "HIV"
	for i := 6; i < 100; i++ {
		labels[i] = "other" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	s := dataset.MustSchema(
		[]*dataset.Attribute{dataset.MustIntAttribute("QI", 0, 0)},
		dataset.MustAttribute("Disease", labels...),
	)
	tbl := dataset.NewTable(s)
	for _, d := range []string{
		"pneumonia", "pneumonia", "pneumonia", "HIV", "HIV",
		"bronchitis", "bronchitis", "lung-cancer", "lung-cancer",
		"SARS", "tuberculosis",
	} {
		if err := tbl.AppendLabels("0", d); err != nil {
			t.Fatal(err)
		}
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.MustFlat(1)}
	rec, err := generalize.TopRecoding(tbl.Schema, hiers)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := PublishConventional(tbl, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Adversary knows o1 (row 0) does not have HIV: prior 1/99 per value.
	prior, err := privacy.Excluding(100, s.Sensitive.MustCode("HIV"))
	if err != nil {
		t.Fatal(err)
	}
	// Q_r: exact reconstruction of pneumonia -> posterior 1/3 (paper).
	qr, _ := privacy.ExactReconstruction(100, s.Sensitive.MustCode("pneumonia"))
	pr, post, err := conv.PredicateAttack(0, prior, qr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr-1.0/99) > 1e-12 {
		t.Fatalf("prior = %v, want 1/99", pr)
	}
	if math.Abs(post-1.0/3) > 1e-12 {
		t.Fatalf("posterior = %v, want 1/3", post)
	}
	// Q: "a respiratory disease" -> prior 5/99, posterior 1 (Lemma 1).
	q, _ := privacy.PredicateOf(100, 0, 1, 2, 3, 4)
	pr, post, err = conv.PredicateAttack(0, prior, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr-5.0/99) > 1e-12 {
		t.Fatalf("prior = %v, want 5/99", pr)
	}
	if post != 1 {
		t.Fatalf("posterior = %v, want 1 (Lemma 1)", post)
	}
}

func TestLemma2TotalCorruption(t *testing.T) {
	// Conventional 2-anonymous generalization of the hospital table: with
	// C = E - {victim}, the adversary reconstructs the victim's disease.
	d, ext := hospitalExternal(t)
	hiers := hospitalHiers(d.Schema)
	rec, err := generalize.TopRecoding(d.Schema, hiers)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := PublishConventional(d, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{0, 1, 2, 3, 5, 6, 7, 8} {
		got, err := conv.TotalCorruptionAttack(ext, victim)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		want := d.Sensitive(ext.RowOf(victim))
		if got != want {
			t.Fatalf("victim %d: reconstructed %d, want %d", victim, got, want)
		}
	}
	// Extraneous victims are rejected.
	if _, err := conv.TotalCorruptionAttack(ext, 4); err == nil {
		t.Fatal("extraneous victim: want error")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	d := dataset.Hospital()
	res, err := MonteCarlo(d, dataset.HospitalVoterQI(), hospitalHiers(d.Schema), MonteCarloConfig{
		PG:              pg.Config{K: 2, P: 0.3},
		Trials:          150,
		Lambda:          0.1,
		CorruptFraction: 0.6,
		Seed:            5,
	})
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if res.BreachesRho != 0 || res.BreachesDelta != 0 {
		t.Fatalf("breaches observed: rho=%d delta=%d", res.BreachesRho, res.BreachesDelta)
	}
	if res.MaxH > res.MaxHBound+1e-9 {
		t.Fatalf("MaxH %v exceeds bound %v", res.MaxH, res.MaxHBound)
	}
	if res.MaxGrowth > res.DeltaBound+1e-9 {
		t.Fatalf("MaxGrowth %v exceeds Theorem-3 bound %v", res.MaxGrowth, res.DeltaBound)
	}
}

func TestMonteCarloValidationWorstCase(t *testing.T) {
	d := dataset.Hospital()
	res, err := MonteCarlo(d, dataset.HospitalVoterQI(), hospitalHiers(d.Schema), MonteCarloConfig{
		PG:              pg.Config{K: 2, P: 0.25},
		Trials:          100,
		Lambda:          0.2,
		CorruptFraction: 1, // |C| = |E| - 1
		Seed:            6,
	})
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if res.BreachesRho != 0 || res.BreachesDelta != 0 {
		t.Fatalf("worst-case breaches: rho=%d delta=%d", res.BreachesRho, res.BreachesDelta)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	voters := dataset.HospitalVoterQI()
	if _, err := MonteCarlo(d, voters, hiers, MonteCarloConfig{PG: pg.Config{K: 2, P: 0.3}, Trials: 0, Lambda: 0.1}); err == nil {
		t.Fatal("zero trials: want error")
	}
	if _, err := MonteCarlo(d, voters, hiers, MonteCarloConfig{PG: pg.Config{K: 2, P: 0.3}, Trials: 1, Lambda: 0}); err == nil {
		t.Fatal("lambda 0: want error")
	}
	if _, err := MonteCarlo(d, voters, hiers, MonteCarloConfig{PG: pg.Config{P: 0.3}, Trials: 1, Lambda: 0.1}); err == nil {
		t.Fatal("K = 0: want error")
	}
}

func TestMonteCarloParallel(t *testing.T) {
	d := dataset.Hospital()
	res, err := MonteCarlo(d, dataset.HospitalVoterQI(), hospitalHiers(d.Schema), MonteCarloConfig{
		PG:              pg.Config{K: 2, P: 0.3},
		Trials:          120,
		Lambda:          0.1,
		CorruptFraction: 0.8,
		Seed:            77,
		Workers:         4,
	})
	if err != nil {
		t.Fatalf("parallel MonteCarlo: %v", err)
	}
	if res.BreachesRho != 0 || res.BreachesDelta != 0 {
		t.Fatalf("breaches: rho=%d delta=%d", res.BreachesRho, res.BreachesDelta)
	}
	if res.MaxH > res.MaxHBound+1e-9 {
		t.Fatalf("MaxH %v above bound %v", res.MaxH, res.MaxHBound)
	}
	// More workers than trials clamps cleanly.
	if _, err := MonteCarlo(d, dataset.HospitalVoterQI(), hospitalHiers(d.Schema), MonteCarloConfig{
		PG: pg.Config{K: 2, P: 0.3}, Trials: 3, Lambda: 0.1, Seed: 78, Workers: 16,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMonteCarloWorkerInvariant pins that the worker count only decides who
// runs a trial: every trial draws from its own seed split and the fold runs
// in trial order, so the result is the same at any Workers value.
func TestMonteCarloWorkerInvariant(t *testing.T) {
	hosp := dataset.Hospital()
	salD, err := sal.Generate(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	salVoters := make([][]int32, salD.Len())
	for i := range salVoters {
		salVoters[i] = salD.QIVector(i)
	}
	cases := []struct {
		name   string
		d      *dataset.Table
		voters [][]int32
		hiers  []*hierarchy.Hierarchy
		cfg    MonteCarloConfig
	}{
		{"hospital", hosp, dataset.HospitalVoterQI(), hospitalHiers(hosp.Schema), MonteCarloConfig{
			PG: pg.Config{K: 2, P: 0.3}, Trials: 40, Lambda: 0.1, CorruptFraction: 0.5, Seed: 21,
		}},
		{"sal", salD, salVoters, sal.Hierarchies(salD.Schema), MonteCarloConfig{
			PG: pg.Config{K: 6, P: 0.3}, Trials: 12, Lambda: 0.1, CorruptFraction: 1, Seed: 22,
		}},
	}
	for _, c := range cases {
		var want *MonteCarloResult
		for _, workers := range []int{1, 3, 8} {
			cfg := c.cfg
			cfg.Workers = workers
			got, err := MonteCarlo(c.d, c.voters, c.hiers, cfg)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d workers give %+v, 1 worker gives %+v", c.name, workers, got, want)
			}
		}
	}
}
