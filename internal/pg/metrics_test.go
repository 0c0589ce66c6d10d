package pg

import (
	"reflect"
	"runtime"
	"testing"

	"pgpub/internal/obs"
	"pgpub/internal/sal"
)

// publishWithRegistry runs one instrumented publication and returns the
// counter snapshot.
func publishWithRegistry(t *testing.T, alg Algorithm) map[string]int64 {
	t.Helper()
	d, err := sal.Generate(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pub, err := Publish(d, sal.Hierarchies(d.Schema), Config{
		K: 6, P: 0.3, Algorithm: alg, Seed: 11, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pg.rows.in"]; got != int64(d.Len()) {
		t.Fatalf("pg.rows.in = %d, want %d", got, d.Len())
	}
	if got := snap.Counters["pg.rows.published"]; got != int64(pub.Len()) {
		t.Fatalf("pg.rows.published = %d, want %d", got, pub.Len())
	}
	if ret, red := snap.Counters["pg.phase1.retained"], snap.Counters["pg.phase1.redrawn"]; ret+red != int64(d.Len()) {
		t.Fatalf("phase-1 coin flips %d+%d != %d rows", ret, red, d.Len())
	}
	if snap.Counters["pg.phase2.groups"] != int64(pub.Len()) {
		t.Fatalf("pg.phase2.groups = %d, want one published row per group = %d",
			snap.Counters["pg.phase2.groups"], pub.Len())
	}
	return snap.Counters
}

// Pipeline counters are part of the determinism contract: every counter value
// is invariant under GOMAXPROCS, exactly like the published bytes.
func TestPublishMetricsWorkerInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		var ref map[string]int64
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got := publishWithRegistry(t, alg)
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%v: counters differ at GOMAXPROCS=%d:\ngot  %v\nwant %v", alg, procs, got, ref)
			}
		}
	}
}

// A nil registry must leave Publish's output untouched (the disabled fast
// path cannot perturb the RNG draw sequence).
func TestPublishMetricsNilIdentical(t *testing.T) {
	d, err := sal.Generate(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(d.Schema)
	base, err := Publish(d, hiers, Config{K: 6, P: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Publish(d, hiers, Config{K: 6, P: 0.3, Seed: 13, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Columns(), instr.Columns()) {
		t.Fatal("instrumented publication differs from uninstrumented one")
	}
}
