package attackfleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pgpub/internal/attack"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
)

// serveSnapshot publishes a SAL release and serves it on a loopback port the
// way cmd/pgserve would, for BaseURL-mode tests.
func serveSnapshot(t *testing.T, n int, seed int64, k int, p float64, algorithm string) (base string, shutdown func()) {
	t.Helper()
	d, err := sal.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := pg.ParseAlgorithm(algorithm)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: k, P: p, Algorithm: alg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := query.NewIndex(pub)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := pub.Metadata(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Index: ix, Meta: meta, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + hs.Addr, func() { hs.Close() }
}

// runFleet runs a small self-served fleet at GOMAXPROCS procs and returns
// the report.
func runFleet(t *testing.T, algorithm string, procs int) *Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := Run(Config{
		N: 1500, Seed: 7, K: 5, P: 0.3, Algorithm: algorithm,
		Victims: 8, Fractions: []float64{0, 0.5, 1},
	})
	if err != nil {
		t.Fatalf("fleet %s at GOMAXPROCS=%d: %v", algorithm, procs, err)
	}
	return rep
}

// TestFleetEquivalence is the end-to-end equivalence check: the fleet's
// over-HTTP breach estimates must be byte-identical to the in-process
// internal/attack estimates on the same snapshot, at GOMAXPROCS 1, 4 and
// 16, and the report JSON must not depend on GOMAXPROCS.
func TestFleetEquivalence(t *testing.T) {
	for _, algorithm := range []string{"kd", "tds", "full-domain"} {
		t.Run(algorithm, func(t *testing.T) {
			var baseline []byte
			for _, procs := range []int{1, 4, 16} {
				rep := runFleet(t, algorithm, procs)
				if rep.Violations != 0 {
					t.Fatalf("%d bound violations at GOMAXPROCS=%d", rep.Violations, procs)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = js
					checkAgainstInProcess(t, rep)
				} else if !bytes.Equal(baseline, js) {
					t.Fatalf("report at GOMAXPROCS=%d differs from GOMAXPROCS=1:\n%s\nvs\n%s", procs, js, baseline)
				}
			}
		})
	}
}

// checkAgainstInProcess recomputes every (victim, fraction) estimate with
// attack.LinkAttack on a locally republished snapshot and demands bitwise
// equality with the fleet's over-HTTP numbers.
func checkAgainstInProcess(t *testing.T, rep *Report) {
	t.Helper()
	d, err := sal.Generate(rep.N, rep.Seed)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	alg, err := pg.ParseAlgorithm(rep.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, hiers, pg.Config{K: rep.K, P: rep.P, Algorithm: alg, Seed: rep.Seed})
	if err != nil {
		t.Fatal(err)
	}
	voterQI := make([][]int32, d.Len())
	for i := range voterQI {
		voterQI[i] = d.QIVector(i)
	}
	ext, err := attack.NewExternal(d, voterQI)
	if err != nil {
		t.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	fleetRoot := par.SplitSeed(rep.Seed, 2)

	agreed := 0
	for slot, det := range rep.details {
		vq := ext.QIOf(det.victim)
		ct, ok := pub.FindCrucial(vq)
		if !ok {
			t.Fatalf("victim %d: no crucial tuple in the local republication", det.victim)
		}
		if ct.Value != det.y {
			t.Fatalf("victim %d: fleet recovered y = %d, publication has %d", det.victim, det.y, ct.Value)
		}
		if ct.G != det.g {
			t.Fatalf("victim %d: aware adversary says G = %d, publication has %d", det.victim, det.g, ct.G)
		}
		if det.agree {
			agreed++
		}
		truth, _ := ext.SensitiveOf(det.victim)
		vRoot := par.SplitSeed(fleetRoot, 2+slot)
		cands := attack.CandidatesIn(ext, ct.Box, det.victim)
		for fi, fo := range det.fracs {
			rng := rand.New(rand.NewSource(par.SplitSeed(vRoot, fi)))
			adv, q, err := planFor(cands, fo.fraction, rep.Lambda, domain, truth, det.y, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := attack.LinkAttack(pub, ext, det.victim, adv, q)
			if err != nil {
				t.Fatal(err)
			}
			same := func(name string, got, want float64) {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("victim %d fraction %v: over-HTTP %s = %v, in-process %v",
						det.victim, fo.fraction, name, got, want)
				}
			}
			same("h", fo.aware.h, res.H)
			same("prior", fo.aware.prior, res.Prior)
			same("posterior", fo.aware.posterior, res.Posterior)
			if det.agree {
				same("probe h", fo.probe.h, res.H)
				same("probe posterior", fo.probe.posterior, res.Posterior)
			}
		}
	}
	if agreed == 0 {
		t.Fatalf("blind probe agreed with the aware adversary on 0 of %d victims", len(rep.details))
	}
}

// TestFleetMetadataConflict pins the BaseURL-mode validation: attacking a
// served release with a conflicting attack config must error rather than
// check the wrong guarantee.
func TestFleetMetadataConflict(t *testing.T) {
	// Self-serve a kd snapshot on a loopback port by running a zero-victim…
	// not possible through Run alone, so start one directly.
	base, shutdown := serveSnapshot(t, 1500, 7, 5, 0.3, "kd")
	defer shutdown()

	if _, err := Run(Config{BaseURL: base, N: 1500, Seed: 7, K: 4, Victims: 1}); err == nil {
		t.Fatal("conflicting k accepted")
	}
	if _, err := Run(Config{BaseURL: base, N: 1500, Seed: 7, P: 0.5, Victims: 1}); err == nil {
		t.Fatal("conflicting p accepted")
	}
	if _, err := Run(Config{BaseURL: base, N: 1500, Seed: 7, Algorithm: "tds", Victims: 1}); err == nil {
		t.Fatal("conflicting algorithm accepted")
	}

	// Adopted metadata must work and agree with the self-served run.
	rep, err := Run(Config{
		BaseURL: base, N: 1500, Seed: 7, Victims: 8,
		Fractions: []float64{0, 0.5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 5 || rep.P != 0.3 || rep.Algorithm != "kd" {
		t.Fatalf("adopted metadata k=%d p=%v algorithm=%s", rep.K, rep.P, rep.Algorithm)
	}
	selfRep := runFleet(t, "kd", 4)
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(selfRep)
	if !bytes.Equal(a, b) {
		t.Fatalf("BaseURL-mode report differs from self-serve:\n%s\nvs\n%s", a, b)
	}
}
