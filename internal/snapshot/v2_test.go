package snapshot

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sal"
)

// workload generates a deterministic query mix for index-equivalence checks.
func workload(t *testing.T, pub *pg.Published, n int) []query.CountQuery {
	t.Helper()
	qs, err := query.Workload(pub.Schema, query.WorkloadConfig{
		Queries:           n,
		QIFraction:        0.5,
		SensitiveFraction: 0.4,
		Rng:               rand.New(rand.NewSource(99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestOpenMapped is the mmap serving path's core property: opening a saved
// snapshot in place yields the same publication (rows, metadata, guarantee)
// and an index whose answers are bit-identical to one built from scratch —
// without parsing the file.
func TestOpenMapped(t *testing.T) {
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		pub := publishHospital(t, alg)
		g := &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.2, Rho2: 0.4, Delta: 0.2}
		path := t.TempDir() + "/pub.pgsnap"
		if err := Save(path, pub, g); err != nil {
			t.Fatalf("%v: Save: %v", alg, err)
		}

		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("%v: OpenMapped: %v", alg, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%v: Verify: %v", alg, err)
		}
		if !reflect.DeepEqual(m.Guarantee, g) {
			t.Fatalf("%v: mapped guarantee drifted: %+v", alg, m.Guarantee)
		}
		if m.Pub.Algorithm != pub.Algorithm || m.Pub.P != pub.P || m.Pub.K != pub.K {
			t.Fatalf("%v: mapped parameters drifted", alg)
		}

		// The mapped columns must reproduce the published bytes exactly.
		var origCSV, mappedCSV strings.Builder
		if err := pub.WriteCSV(&origCSV); err != nil {
			t.Fatal(err)
		}
		if err := m.Pub.WriteCSV(&mappedCSV); err != nil {
			t.Fatal(err)
		}
		if origCSV.String() != mappedCSV.String() {
			t.Fatalf("%v: WriteCSV differs through the mapping", alg)
		}

		// Index answers must be bit-identical to a freshly built index.
		fresh, err := query.NewIndex(pub)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range workload(t, pub, 50) {
			want, err1 := fresh.Count(q)
			got, err2 := m.Index.Count(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%v: query %d error drift: %v vs %v", alg, qi, err1, err2)
			}
			if want != got {
				t.Fatalf("%v: query %d: mapped index answered %v, fresh %v", alg, qi, got, want)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%v: Close: %v", alg, err)
		}
		if err := m.Close(); err != nil { // idempotent
			t.Fatalf("%v: second Close: %v", alg, err)
		}
	}
}

// TestMappedVerifyCatchesEveryByte flips every byte of a v2 image and
// requires open+Verify (the full-integrity entry sequence) to reject each
// mutant — the open alone is allowed to accept payload damage, that being
// the documented trade for not faulting the file in.
func TestMappedVerifyCatchesEveryByte(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		data[i] ^= 0x5a
		m, err := newMapped(data, false)
		if err == nil {
			err = m.Verify()
		}
		data[i] ^= 0x5a
		if err == nil {
			t.Fatalf("byte %d of %d: corruption accepted through open+Verify", i, len(data))
		}
	}

	// Truncation and extension are rejected at open: a mapped file must end
	// exactly at the last block.
	for _, n := range []int{0, 1, headerLen - 1, headerLen, len(data) / 2, len(data) - 1} {
		if _, err := newMapped(data[:n], false); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted at open", n, len(data))
		}
	}
	if _, err := newMapped(append(append([]byte(nil), data...), 0), false); err == nil {
		t.Fatal("trailing byte accepted at open")
	}
}

// TestWriteWorkerInvariant closes the determinism chain at the artifact
// level: publishing the same microdata at GOMAXPROCS 1, 2 and 8 (it sizes
// every sharded phase, the kd spawn depth and the parallel grid-table
// build) must yield byte-identical v2 snapshot files — columns, directory,
// padding and all — so a snapshot's checksum identifies the release
// regardless of the machine that produced it.
func TestWriteWorkerInvariant(t *testing.T) {
	d, err := sal.Generate(9000, 61)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	g := &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.2, Rho2: 0.4, Delta: 0.2}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		var base []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			pub, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: 23, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v GOMAXPROCS=%d: %v", alg, procs, err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, pub, g, nil); err != nil {
				t.Fatalf("%v GOMAXPROCS=%d: Write: %v", alg, procs, err)
			}
			if base == nil {
				base = buf.Bytes()
				continue
			}
			if !bytes.Equal(base, buf.Bytes()) {
				t.Fatalf("%v: snapshot bytes at GOMAXPROCS=%d differ from GOMAXPROCS=1", alg, procs)
			}
		}
	}
}
