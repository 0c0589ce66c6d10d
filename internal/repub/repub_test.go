package repub

import (
	"math"
	"math/rand"
	"testing"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
)

func hospitalHiers(s *dataset.Schema) []*hierarchy.Hierarchy {
	return []*hierarchy.Hierarchy{
		hierarchy.MustInterval(s.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(s.QI[1].Size()),
		hierarchy.MustInterval(s.QI[2].Size(), 5, 20),
	}
}

// publishT draws T independent releases of d, one rng.Int63 seed each, and
// the external database each is linked through.
func publishT(t *testing.T, d *dataset.Table, ext *attack.External, cfg pg.Config, T int, rng *rand.Rand) ([]*pg.Published, []*attack.External) {
	t.Helper()
	releases := make([]*pg.Published, T)
	exts := make([]*attack.External, T)
	for r := range releases {
		cfg.Seed = rng.Int63()
		pub, err := pg.Publish(d, hospitalHiers(d.Schema), cfg)
		if err != nil {
			t.Fatal(err)
		}
		releases[r], exts[r] = pub, ext
	}
	return releases, exts
}

func TestComposePosteriorSingleMatchesEquation9(t *testing.T) {
	prior := privacy.Uniform(10)
	const p, h = 0.4, 0.6
	y := int32(3)
	want, err := privacy.Posterior(prior, y, p, h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComposePosterior(prior, []Observation{{Y: y, H: h, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if math.Abs(got[x]-want[x]) > 1e-12 {
			t.Fatalf("x=%d: composed %v, Equation 9 gives %v", x, got[x], want[x])
		}
	}
}

func TestComposePosteriorAccumulates(t *testing.T) {
	prior := privacy.Uniform(10)
	y := int32(5)
	obs := []Observation{}
	last := prior[y]
	for T := 1; T <= 6; T++ {
		obs = append(obs, Observation{Y: y, H: 0.5, P: 0.4})
		post, err := ComposePosterior(prior, obs)
		if err != nil {
			t.Fatal(err)
		}
		if err := post.Validate(); err != nil {
			t.Fatal(err)
		}
		if post[y] <= last {
			t.Fatalf("T=%d: repeated consistent observations must increase belief (%v -> %v)",
				T, last, post[y])
		}
		last = post[y]
	}
	if last < 0.5 {
		t.Fatalf("after 6 consistent observations belief is only %v", last)
	}
}

func TestComposePosteriorValidation(t *testing.T) {
	prior := privacy.Uniform(4)
	if _, err := ComposePosterior(privacy.PDF{0.5}, nil); err == nil {
		t.Fatal("invalid prior: want error")
	}
	if _, err := ComposePosterior(prior, []Observation{{Y: 9, H: 0.5, P: 0.5}}); err == nil {
		t.Fatal("y out of domain: want error")
	}
	if _, err := ComposePosterior(prior, []Observation{{Y: 0, H: 2, P: 0.5}}); err == nil {
		t.Fatal("h out of range: want error")
	}
	if _, err := ComposePosterior(prior, []Observation{{Y: 0, H: 0.5, P: 2}}); err == nil {
		t.Fatal("p out of range: want error")
	}
	// p=1 with zero-prior y: uninformative fallback, not an error.
	pm, _ := privacy.PointMass(4, 1)
	post, err := ComposePosterior(pm, []Observation{{Y: 2, H: 0.5, P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if post[1] != 1 {
		t.Fatal("impossible observation should keep the prior")
	}
}

func TestOddsRatioAndGrowthBound(t *testing.T) {
	// R grows with p; at p=0 it is exactly 1 (no information).
	if r := OddsRatioBound(0, 0.1, 6, 50); r != 1 {
		t.Fatalf("R(p=0) = %v, want 1", r)
	}
	r1 := OddsRatioBound(0.2, 0.1, 6, 50)
	r2 := OddsRatioBound(0.4, 0.1, 6, 50)
	if !(1 < r1 && r1 < r2) {
		t.Fatalf("R not increasing: %v, %v", r1, r2)
	}
	if !math.IsInf(OddsRatioBound(1, 0.1, 6, 50), 1) {
		t.Fatal("R(p=1) must be infinite")
	}
	// Growth bound: 0 at p=0, increasing in T, <= 1.
	g0, err := ComposedGrowthBound(3, 0, 0.1, 6, 50)
	if err != nil || g0 != 0 {
		t.Fatalf("growth(p=0) = %v, %v", g0, err)
	}
	prev := 0.0
	for T := 1; T <= 8; T++ {
		g, err := ComposedGrowthBound(T, 0.3, 0.1, 6, 50)
		if err != nil {
			t.Fatal(err)
		}
		if g <= prev || g > 1 {
			t.Fatalf("T=%d: growth bound %v not increasing in (prev %v]", T, g, prev)
		}
		prev = g
	}
	// Consistency: the T=1 composition bound must not undercut Theorem 3's
	// exact bound (it is deliberately conservative).
	exact, err := privacy.MinDelta(0.3, 0.1, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := ComposedGrowthBound(1, 0.3, 0.1, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if g1 < exact {
		t.Fatalf("composition bound %v undercuts Theorem 3's %v", g1, exact)
	}
	// p=1 degenerates to 1.
	gp1, err := ComposedGrowthBound(2, 1, 0.1, 6, 50)
	if err != nil || gp1 != 1 {
		t.Fatalf("growth(p=1) = %v, %v", gp1, err)
	}
	// Errors.
	if _, err := ComposedGrowthBound(0, 0.3, 0.1, 6, 50); err == nil {
		t.Fatal("T=0: want error")
	}
	if _, err := ComposedGrowthBound(1, -0.1, 0.1, 6, 50); err == nil {
		t.Fatal("negative p: want error")
	}
}

func TestMaxRetentionForSeries(t *testing.T) {
	const lambda, delta, k, domain = 0.1, 0.3, 6, 50
	p1, err := MaxRetentionForSeries(1, lambda, delta, k, domain)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := MaxRetentionForSeries(4, lambda, delta, k, domain)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := MaxRetentionForSeries(16, lambda, delta, k, domain)
	if err != nil {
		t.Fatal(err)
	}
	if !(p1 > p4 && p4 > p16 && p16 > 0) {
		t.Fatalf("admissible p must shrink with T: %v, %v, %v", p1, p4, p16)
	}
	// The solved p meets the bound with near-equality.
	g, err := ComposedGrowthBound(4, p4, lambda, k, domain)
	if err != nil || g > delta+1e-9 {
		t.Fatalf("solved p violates the bound: %v, %v", g, err)
	}
	if _, err := MaxRetentionForSeries(0, lambda, delta, k, domain); err == nil {
		t.Fatal("T=0: want error")
	}
	if _, err := MaxRetentionForSeries(1, lambda, 0, k, domain); err == nil {
		t.Fatal("delta=0: want error")
	}
}

// The headline property: composed Monte-Carlo attacks over T releases never
// exceed the composed growth bound, including under worst-case corruption.
func TestMultiReleaseAttackWithinBound(t *testing.T) {
	d := dataset.Hospital()
	ext, err := attack.NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		t.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	const p, k, T = 0.3, 2, 3
	lambda := 1 / float64(domain)
	bound, err := ComposedGrowthBound(T, p, lambda, k, domain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		releases, exts := publishT(t, d, ext, pg.Config{K: k, P: p}, T, rng)
		victim := []int{0, 1, 2, 3, 5, 6, 7, 8}[rng.Intn(8)]
		adv := attack.Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{}}
		for id := 0; id < ext.Len(); id++ {
			if id != victim && rng.Float64() < 0.7 {
				adv.Corrupted[id] = true
			}
		}
		truth := d.Sensitive(ext.RowOf(victim))
		q, err := privacy.ExactReconstruction(domain, truth)
		if err != nil {
			t.Fatal(err)
		}
		obs, prior, posts, err := MultiReleaseAttack(releases, exts, victim, adv, q)
		if err != nil {
			t.Fatal(err)
		}
		if growth := posts[T-1] - prior; growth > bound+1e-9 {
			t.Fatalf("trial %d: composed growth %v exceeds bound %v", trial, growth, bound)
		}
		// posts[r] is the composition of the first r+1 observations.
		for r := range posts {
			post, err := ComposePosterior(adv.Background, obs[:r+1])
			if err != nil {
				t.Fatal(err)
			}
			if c, err := post.Confidence(q); err != nil || c != posts[r] {
				t.Fatalf("trial %d: prefix %d posterior %v, ComposePosterior gives %v (%v)", trial, r, posts[r], c, err)
			}
		}
	}
	adv := attack.Adversary{Background: privacy.Uniform(domain)}
	q := privacy.Predicate(make([]bool, domain))
	if _, _, _, err := MultiReleaseAttack(nil, nil, 0, adv, q); err == nil {
		t.Fatal("no releases: want error")
	}
	releases, _ := publishT(t, d, ext, pg.Config{K: k, P: p}, 2, rng)
	if _, _, _, err := MultiReleaseAttack(releases, []*attack.External{ext}, 0, adv, q); err == nil {
		t.Fatal("one external for two releases: want error")
	}
}

// Re-publication really does leak more: across many trials, the maximum
// composed growth over 5 releases should exceed the maximum single-release
// growth (the quantitative version of Section IX's warning).
func TestRepublicationAccumulatesLeakage(t *testing.T) {
	d := dataset.Hospital()
	ext, err := attack.NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		t.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	const p, k = 0.3, 2
	rng := rand.New(rand.NewSource(11))
	maxSingle, maxMulti := 0.0, 0.0
	for trial := 0; trial < 80; trial++ {
		releases, exts := publishT(t, d, ext, pg.Config{K: k, P: p}, 5, rng)
		victim := []int{0, 1, 2, 3, 5, 6, 7, 8}[rng.Intn(8)]
		adv := attack.Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{}}
		for id := 0; id < ext.Len(); id++ {
			if id != victim {
				adv.Corrupted[id] = true
			}
		}
		truth := d.Sensitive(ext.RowOf(victim))
		q, err := privacy.ExactReconstruction(domain, truth)
		if err != nil {
			t.Fatal(err)
		}
		_, prior, posts, err := MultiReleaseAttack(releases, exts, victim, adv, q)
		if err != nil {
			t.Fatal(err)
		}
		if g := posts[4] - prior; g > maxMulti {
			maxMulti = g
		}
		// Single-release growth from the first observation alone.
		if g := posts[0] - prior; g > maxSingle {
			maxSingle = g
		}
	}
	if !(maxMulti > maxSingle+0.05) {
		t.Fatalf("5 releases should leak clearly more: single %v, multi %v", maxSingle, maxMulti)
	}
}
