package snapshot_test

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pgpub/internal/mining"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
	"pgpub/internal/snapshot"
)

// TestLoadedPublicationBehavesLikePublished pins that a publication read
// back from a snapshot is observationally the publication that was saved,
// for every Phase-2 algorithm and every consumer of D*: CSV bytes, box
// labels, the linking attack's crucial-tuple lookup, the aggregate collapse
// and validator, the four scan estimators bit for bit, and both miners.
func TestLoadedPublicationBehavesLikePublished(t *testing.T) {
	d, err := sal.Generate(4000, 51)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	classOf := func(y int32) int {
		if y >= 25 {
			return 1
		}
		return 0
	}
	qs, err := query.Workload(d.Schema, query.WorkloadConfig{
		Queries: 120, QIFraction: 0.4, RestrictAttrs: 3, SensitiveFraction: 0.3,
		Rng: rand.New(rand.NewSource(52)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		t.Run(alg.String(), func(t *testing.T) {
			pub, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: 13, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "pub.pgsnap")
			if err := snapshot.Save(path, pub, nil); err != nil {
				t.Fatal(err)
			}
			m, err := snapshot.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			got := m.Pub

			// The consumers that only read run first, before anything else
			// has touched the loaded publication.
			gNB, err := mining.TrainNBPG(got, classOf, 2, mining.NBConfig{})
			if err != nil {
				t.Fatalf("TrainNBPG on the loaded publication: %v", err)
			}
			wNB, err := mining.TrainNBPG(pub, classOf, 2, mining.NBConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gNB, wNB) {
				t.Fatal("TrainNBPG models differ after the round trip")
			}
			if got.Len() != pub.Len() {
				t.Fatalf("Len %d, want %d", got.Len(), pub.Len())
			}
			for i := 0; i < pub.Len(); i++ {
				for j := range d.Schema.QI {
					if g, w := got.BoxLabel(i, j), pub.BoxLabel(i, j); g != w {
						t.Fatalf("BoxLabel(%d, %d) = %q, want %q", i, j, g, w)
					}
				}
			}
			// Hits at every 97th source row, plus a miss outside every box.
			outside := make([]int32, d.Schema.D())
			for j := range outside {
				outside[j] = -1
			}
			var probes [][]int32
			for i := 0; i < d.Len(); i += 97 {
				probes = append(probes, d.QIVector(i))
			}
			for _, vq := range probes {
				gr, gok := got.FindCrucial(vq)
				wr, wok := pub.FindCrucial(vq)
				if gok != wok || !reflect.DeepEqual(gr, wr) {
					t.Fatalf("FindCrucial(%v) = (%v, %v), want (%v, %v)", vq, gr, gok, wr, wok)
				}
			}
			if _, ok := got.FindCrucial(outside); ok {
				t.Fatal("FindCrucial matched a vector outside the domain")
			}
			if !reflect.DeepEqual(got.Aggregates(), pub.Aggregates()) {
				t.Fatal("Aggregates differ after the round trip")
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("loaded publication invalid: %v", err)
			}
			if !bytes.Equal(csvBytes(t, got), csvBytes(t, pub)) {
				t.Fatal("CSV bytes differ after the round trip")
			}

			for qi, q := range qs {
				for _, e := range scanEstimators(q) {
					g, gerr := e.f(got)
					w, werr := e.f(pub)
					if (gerr == nil) != (werr == nil) || math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("q%d %s: loaded (%v, %v), published (%v, %v)", qi, e.name, g, gerr, w, werr)
					}
				}
			}

			gTree, err := mining.TrainPG(got, classOf, 2, mining.Config{})
			if err != nil {
				t.Fatalf("TrainPG on the loaded publication: %v", err)
			}
			wTree, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.Len(); i += 7 {
				if vq := d.QIVector(i); gTree.Predict(vq) != wTree.Predict(vq) {
					t.Fatalf("TrainPG predictions differ at row %d", i)
				}
			}
		})
	}

	// Readers share a loaded publication: the scan estimators and the CSV
	// writer must not write to it (go test -race checks).
	t.Run("concurrent", func(t *testing.T) {
		pub, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		var image bytes.Buffer
		if err := snapshot.Write(&image, pub, nil, nil); err != nil {
			t.Fatal(err)
		}
		m, err := snapshot.Read(&image)
		if err != nil {
			t.Fatal(err)
		}
		want := csvBytes(t, pub)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := query.Estimate(m.Pub, qs[0]); err != nil {
					t.Error(err)
				}
				var buf bytes.Buffer
				if err := m.Pub.WriteCSV(&buf); err != nil {
					t.Error(err)
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Error("concurrent WriteCSV bytes differ")
				}
			}()
		}
		wg.Wait()
	})
}

type scanEstimator struct {
	name string
	f    func(*pg.Published) (float64, error)
}

// scanEstimators lists the scan estimators that apply to q: SUM and AVG
// take no sensitive mask.
func scanEstimators(q query.CountQuery) []scanEstimator {
	ests := []scanEstimator{
		{"Estimate", func(p *pg.Published) (float64, error) { return query.Estimate(p, q) }},
		{"EstimateNaive", func(p *pg.Published) (float64, error) { return query.EstimateNaive(p, q) }},
	}
	if q.Sensitive == nil {
		ests = append(ests,
			scanEstimator{"EstimateSum", func(p *pg.Published) (float64, error) {
				return query.EstimateSum(p, q, query.IncomeMidpoint)
			}},
			scanEstimator{"EstimateAvg", func(p *pg.Published) (float64, error) {
				return query.EstimateAvg(p, q, query.IncomeMidpoint)
			}})
	}
	return ests
}

func csvBytes(t *testing.T, pub *pg.Published) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pub.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
