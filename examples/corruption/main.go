// Corruption: why PG exists. Demonstrates, on the paper's hospital example,
// (1) the Section I attack — corrupting Bob reveals Calvin's disease under
// conventional 2-anonymous generalization (the essence of Lemma 2), and
// (2) that the same adversary gains almost nothing against a PG publication,
// with the posterior capped by the bounds of Theorems 2 and 3.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pgpub"
)

func main() {
	d := pgpub.Hospital()
	names := pgpub.HospitalNames()
	ext, err := pgpub.NewExternal(d, pgpub.HospitalVoterQI())
	if err != nil {
		log.Fatal(err)
	}

	// --- Part 1: conventional generalization fails under corruption ---
	rec, err := pgpub.TopRecoding(d.Schema, pgpub.HospitalHierarchies(d.Schema))
	if err != nil {
		log.Fatal(err)
	}
	conv, err := pgpub.PublishConventional(d, rec)
	if err != nil {
		log.Fatal(err)
	}
	const calvin = 1 // victim of the Section I example
	fmt.Println("Conventional generalization, adversary corrupts everyone except the victim:")
	got, err := conv.TotalCorruptionAttack(ext, calvin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s's disease reconstructed EXACTLY: %s (posterior confidence 1.0 — Lemma 2)\n\n",
		names[calvin], d.Schema.Sensitive.Label(got))

	// --- Part 2: PG resists the same adversary ---
	domain := d.Schema.SensitiveDomain()
	const p, k = 0.3, 2
	hBound := pgpub.HTop(p, 1/float64(domain), k, domain)
	deltaBound, err := pgpub.MinDelta(p, 1/float64(domain), k, domain)
	if err != nil {
		log.Fatal(err)
	}

	adv := pgpub.Adversary{
		Background: pgpub.UniformPDF(domain),
		Corrupted:  map[int]bool{},
	}
	for id := range names {
		if id != calvin {
			adv.Corrupted[id] = true // |C| = |E| - 1, the worst case
		}
	}
	truth := d.Sensitive(ext.RowOf(calvin))
	q, err := pgpub.PredicateOf(domain, truth)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("PG (p=%.1f, k=%d), the SAME worst-case adversary, 200 fresh publications:\n", p, k)
	rng := rand.New(rand.NewSource(1))
	maxPost, maxGrowth := 0.0, 0.0
	for trial := 0; trial < 200; trial++ {
		pub, err := pgpub.Publish(d, pgpub.HospitalHierarchies(d.Schema),
			pgpub.Config{K: k, P: p, Seed: rng.Int63()})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pgpub.LinkAttack(pub, ext, calvin, adv, q)
		if err != nil {
			log.Fatal(err)
		}
		if res.Posterior > maxPost {
			maxPost = res.Posterior
		}
		if g := res.Posterior - res.Prior; g > maxGrowth {
			maxGrowth = g
		}
	}
	fmt.Printf("  worst posterior about %s's true disease: %.4f (prior was %.4f)\n",
		names[calvin], maxPost, 1/float64(domain))
	fmt.Printf("  worst confidence growth: %.4f, analytic Delta bound: %.4f (h <= %.4f)\n",
		maxGrowth, deltaBound, hBound)
	fmt.Println("  -> corruption of every other individual still cannot pin down the victim.")
}
