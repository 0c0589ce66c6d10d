// Evolution: re-publication, the future-work direction of the paper's
// Section IX, from both angles this repository implements.
//
// Part 1 (probabilistic, package repub): repeatedly PG-publishing the same
// microdata lets a worst-case-corrupting adversary compose observations;
// the demo shows the growth accumulating and the per-release retention
// probability a publisher must plan for a multi-release budget.
//
// Part 2 (deterministic, package minv): when the microdata itself evolves
// (insertions/deletions) and is re-anonymized, the intersection attack
// shrinks a victim's candidate values — unless releases are m-invariant.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pgpub"
)

func main() {
	// ---- Part 1: composing PG releases ----
	d := pgpub.Hospital()
	ext, err := pgpub.NewExternal(d, pgpub.HospitalVoterQI())
	if err != nil {
		log.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	const p, k = 0.3, 2
	lambda := 1 / float64(domain)

	fmt.Println("Part 1 — composing repeated PG releases (worst-case corruption):")
	fmt.Printf("%-4s %12s %12s %14s\n", "T", "maxGrowth", "bound", "planned p(T)")
	rng := rand.New(rand.NewSource(1))
	hiers := pgpub.HospitalHierarchies(d.Schema)
	for _, T := range []int{1, 2, 4, 8} {
		bound, err := pgpub.ComposedGrowthBound(T, p, lambda, k, domain)
		if err != nil {
			log.Fatal(err)
		}
		planned, err := pgpub.MaxRetentionForSeries(T, lambda, 0.3, k, domain)
		if err != nil {
			log.Fatal(err)
		}
		// Every release is of the same microdata, so one ℰ links them all.
		exts := make([]*pgpub.External, T)
		for t := range exts {
			exts[t] = ext
		}
		maxGrowth := 0.0
		for trial := 0; trial < 40; trial++ {
			releases := make([]*pgpub.Published, T)
			for t := range releases {
				releases[t], err = pgpub.Publish(d, hiers, pgpub.Config{K: k, P: p, Seed: rng.Int63()})
				if err != nil {
					log.Fatal(err)
				}
			}
			victim := 1 // Calvin
			adv := pgpub.Adversary{Background: pgpub.UniformPDF(domain), Corrupted: map[int]bool{}}
			for id := range pgpub.HospitalNames() {
				if id != victim {
					adv.Corrupted[id] = true
				}
			}
			q, err := pgpub.PredicateOf(domain, d.Sensitive(ext.RowOf(victim)))
			if err != nil {
				log.Fatal(err)
			}
			_, prior, posts, err := pgpub.MultiReleaseAttack(releases, exts, victim, adv, q)
			if err != nil {
				log.Fatal(err)
			}
			if g := posts[T-1] - prior; g > maxGrowth {
				maxGrowth = g
			}
		}
		fmt.Printf("%-4d %12.4f %12.4f %14.4f\n", T, maxGrowth, bound, planned)
	}
	fmt.Println("-> leakage accumulates with T; the planner shrinks p to compensate.")

	// ---- Part 2: m-invariance on evolving data ----
	fmt.Println("\nPart 2 — m-invariant re-publication of evolving microdata:")
	schema, err := pgpub.NewSchema(
		[]*pgpub.Attribute{mustAttr(pgpub.NewIntAttribute("ID", 0, 63))},
		mustAttr(pgpub.NewIntAttribute("Condition", 0, 7)),
	)
	if err != nil {
		log.Fatal(err)
	}
	mkTable := func(owners []int) *pgpub.Table {
		t := pgpub.NewTable(schema)
		for _, o := range owners {
			if err := t.Append([]int32{int32(o), int32(o % 8)}); err != nil {
				log.Fatal(err)
			}
			t.Owners = append(t.Owners, o)
		}
		return t
	}
	present := [][]int{rangeInts(0, 31), rangeInts(8, 47), rangeInts(16, 63)}
	st, err := pgpub.NewMInvState(3)
	if err != nil {
		log.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(2))
	var releases []*pgpub.MInvRelease
	var tables []*pgpub.Table
	for t, owners := range present {
		tbl := mkTable(owners)
		rel, err := st.Publish(tbl, rng2)
		if err != nil {
			log.Fatal(err)
		}
		releases = append(releases, rel)
		tables = append(tables, tbl)
		fmt.Printf("release %d: %d tuples, %d groups, %d counterfeits\n",
			t+1, tbl.Len(), len(rel.Groups), rel.Counterfeits())
	}
	if err := pgpub.VerifyMInvariance(releases, tables); err != nil {
		log.Fatal(err)
	}
	worst := 99
	for _, victim := range rangeInts(16, 31) { // alive in all releases
		cand, ok := pgpub.IntersectionAttack(releases, victim)
		if !ok {
			log.Fatalf("victim %d missing", victim)
		}
		if len(cand) < worst {
			worst = len(cand)
		}
	}
	fmt.Printf("intersection attack on full-history victims: >= %d candidates everywhere (m = 3)\n", worst)
	fmt.Println("-> signatures persist across releases, so intersections never shrink below m.")
}

func mustAttr(a *pgpub.Attribute, err error) *pgpub.Attribute {
	if err != nil {
		log.Fatal(err)
	}
	return a
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for o := lo; o <= hi; o++ {
		out = append(out, o)
	}
	return out
}
