// Quickstart: the paper's running example. Publishes the hospital microdata
// of Table Ia with perturbed generalization at the parameters of the
// Table II walkthrough (p = 0.25, s = 0.5, hence k = 2), prints the
// intermediate and final tables, and reports the privacy guarantees.
package main

import (
	"fmt"
	"log"
	"os"

	"pgpub"
)

func main() {
	// The microdata D of Table Ia (Bob, Calvin, Debbie, ... with their
	// diseases) ships with the library as the canonical example.
	d := pgpub.Hospital()
	fmt.Println("Microdata D (Table Ia):")
	if err := d.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Generalization hierarchies at the granularity of Table Ic: 5-year and
	// 20-year Age bands, 5k and 20k Zipcode bands, Gender suppressible only.
	hiers := pgpub.HospitalHierarchies(d.Schema)

	// Publish with the Table II parameters. Phase 1 perturbs Disease with
	// retention probability 0.25; Phase 2 builds 2-anonymous QI-groups;
	// Phase 3 samples one tuple per group and attaches the group size G.
	pub, err := pgpub.Publish(d, hiers, pgpub.Config{K: 2, P: 0.25, Seed: 2008})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPublished D* (cf. Table IIc): %d of %d tuples, k = %d\n",
		pub.Len(), d.Len(), pub.K)
	if err := pub.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The background-sensitive guarantees of Theorems 2 and 3, against
	// adversaries with 0.1-skewed knowledge and prior confidence <= 0.2.
	rho2, delta, err := pub.Guarantees(0.1, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGuarantees vs 0.1-skewed adversaries: 0.20-to-%.2f, %.2f-growth\n", rho2, delta)
	fmt.Println("These hold even if the adversary corrupts every other individual (Section VI).")
}
