package pg

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/sal"
)

// updateGolden rewrites the committed golden fixtures instead of comparing
// against them.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden fixtures")

// TestPublishDeterministicAcrossWorkers is the determinism contract of the
// parallel pipeline: for a fixed Seed, the published CSV bytes must be
// identical whether the pipeline runs sequentially or on many workers, for
// every Phase-2 algorithm. Phase-1 perturbation feeds the TDS score and the
// sampled representatives, so any schedule leakage into an RNG stream shows
// up here immediately.
func TestPublishDeterministicAcrossWorkers(t *testing.T) {
	d, err := sal.Generate(12000, 77)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		var base []byte
		for _, workers := range []int{1, 2, 8} {
			pub, err := Publish(d, hiers, Config{K: 6, P: 0.3, Seed: 99, Algorithm: alg, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, workers, err)
			}
			var buf bytes.Buffer
			if err := pub.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				base = buf.Bytes()
				continue
			}
			if !bytes.Equal(base, buf.Bytes()) {
				t.Fatalf("%v: workers=%d output differs from sequential run", alg, workers)
			}
		}
	}
}

// TestPublishDeterministicGolden pins the published bytes of the hospital
// walkthrough to a committed fixture, so a refactor cannot silently change
// what a given seed publishes. Regenerate deliberately with
//
//	go test ./internal/pg -run TestPublishDeterministicGolden -update-golden
//
// and review the diff like any other behavior change.
func TestPublishDeterministicGolden(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 2008, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pub.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "hospital_seed2008.golden.csv")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("published CSV drifted from golden fixture\n--- want ---\n%s\n--- got ---\n%s",
			strings.TrimSpace(string(want)), strings.TrimSpace(buf.String()))
	}
}

// TestPublishSameSeedSameBytes re-publishes with the same seed and expects
// identical bytes — the baseline reproducibility promise of Config.Seed.
func TestPublishSameSeedSameBytes(t *testing.T) {
	d := dataset.Hospital()
	hiers := hospitalHiers(d.Schema)
	var outs [][]byte
	for i := 0; i < 2; i++ {
		pub, err := Publish(d, hiers, Config{K: 2, P: 0.25, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pub.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("same seed must publish identical bytes")
	}
}
