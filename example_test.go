package pgpub_test

import (
	"fmt"

	"pgpub"
)

// Example publishes the paper's hospital microdata (Table Ia) with the
// Table II parameters and prints the publication's shape and guarantees.
func Example() {
	d := pgpub.Hospital()
	pub, err := pgpub.Publish(d, pgpub.HospitalHierarchies(d.Schema),
		pgpub.Config{K: 2, P: 0.25, Seed: 2008})
	if err != nil {
		panic(err)
	}
	rho2, delta, err := pub.Guarantees(0.1, 0.2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("published %d of %d tuples at k = %d\n", pub.Len(), d.Len(), pub.K)
	fmt.Printf("guarantees: 0.20-to-%.2f and %.2f-growth\n", rho2, delta)
	// Output:
	// published 4 of 8 tuples at k = 2
	// guarantees: 0.20-to-0.38 and 0.13-growth
}

// ExampleMinRho2 regenerates one cell of the paper's Table III: the ρ₂
// bound at p = 0.3, k = 6 over the 50-value Income domain.
func ExampleMinRho2() {
	rho2, err := pgpub.MinRho2(0.3, 0.1, 0.2, 6, 50)
	if err != nil {
		panic(err)
	}
	delta, err := pgpub.MinDelta(0.3, 0.1, 6, 50)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rho2 >= %.2f, delta >= %.2f\n", rho2, delta)
	// Output:
	// rho2 >= 0.45, delta >= 0.24
}

// ExampleLinkAttack runs the corruption-aided linking attack of the paper's
// Example 1 shape: the adversary corrupted Debbie and Emily and attacks
// Ellie.
func ExampleLinkAttack() {
	d := pgpub.Hospital()
	pub, err := pgpub.Publish(d, pgpub.HospitalHierarchies(d.Schema),
		pgpub.Config{K: 2, P: 0.25, Seed: 42})
	if err != nil {
		panic(err)
	}
	ext, err := pgpub.NewExternal(d, pgpub.HospitalVoterQI())
	if err != nil {
		panic(err)
	}
	domain := d.Schema.SensitiveDomain()
	q, err := pgpub.PredicateOf(domain,
		d.Schema.Sensitive.MustCode("bronchitis"),
		d.Schema.Sensitive.MustCode("pneumonia"))
	if err != nil {
		panic(err)
	}
	res, err := pgpub.LinkAttack(pub, ext, 3, pgpub.Adversary{
		Background: pgpub.UniformPDF(domain),
		Corrupted:  map[int]bool{2: true, 4: true}, // Debbie, Emily
	}, q)
	if err != nil {
		panic(err)
	}
	bound := pgpub.HTop(pub.P, 1/float64(domain), pub.K, domain)
	fmt.Printf("h within bound: %v\n", res.H <= bound+1e-9)
	fmt.Printf("posterior is a probability: %v\n", res.Posterior >= 0 && res.Posterior <= 1)
	// Output:
	// h within bound: true
	// posterior is a probability: true
}

// ExampleMaxRetentionRho12 plans the retention probability for a target
// guarantee level, the publisher-side workflow of Section VI.
func ExampleMaxRetentionRho12() {
	p, err := pgpub.MaxRetentionRho12(0.1, 0.2, 0.45, 6, 50)
	if err != nil {
		panic(err)
	}
	fmt.Printf("max p = %.2f\n", p)
	// Output:
	// max p = 0.30
}

// ExampleEstimateCount answers an aggregate query from a publication alone.
func ExampleEstimateCount() {
	d, err := pgpub.GenerateSAL(20000, 1)
	if err != nil {
		panic(err)
	}
	pub, err := pgpub.Publish(d, pgpub.SALHierarchies(d.Schema),
		pgpub.Config{K: 6, P: 0.3, Seed: 2})
	if err != nil {
		panic(err)
	}
	// COUNT(*) — the full-domain query is estimated exactly: sum of G.
	q := pgpub.CountQuery{QI: make([]pgpub.QueryRange, d.Schema.D())}
	for j, a := range d.Schema.QI {
		q.QI[j] = pgpub.QueryRange{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	est, err := pgpub.EstimateCount(pub, q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("COUNT(*) = %.0f\n", est)
	// Output:
	// COUNT(*) = 20000
}
