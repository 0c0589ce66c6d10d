package pg

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/par"
	"pgpub/internal/perturb"
	"pgpub/internal/sal"
)

// pubBytes renders a publication to its CSV plus the recoding cut state,
// the full observable surface of a release.
func pubBytes(t *testing.T, p *Published) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if p.Recoding != nil {
		for _, c := range p.Recoding.Cuts {
			fmt.Fprintf(&buf, "%v\n", c.Nodes())
		}
	}
	return buf.Bytes()
}

// testDelta builds a small deterministic delta against a table: delete a
// spread of rows, insert freshly generated ones.
func testDelta(t *testing.T, prev *dataset.Table, deletes, inserts int, seed int64) Delta {
	t.Helper()
	dl := Delta{}
	for i := 0; i < deletes; i++ {
		dl.Deletes = append(dl.Deletes, (i*37+11)%prev.Len())
	}
	if inserts > 0 {
		ins, err := sal.Generate(inserts, seed)
		if err != nil {
			t.Fatal(err)
		}
		ins.Owners = nil
		dl.Inserts = ins
	}
	return dl
}

// TestRepublishMatchesFromScratch is the acceptance contract of the chain:
// for every Phase-2 algorithm and several GOMAXPROCS values, each release of
// a chain (base, delta, empty delta, delta) is byte-identical to a
// from-scratch Publish of the post-delta table under the effective seed
// ReleaseSeed(root, r).
func TestRepublishMatchesFromScratch(t *testing.T) {
	base, err := sal.Generate(3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	const root = 907
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		var golden [][]byte // per release, from GOMAXPROCS=1
		for _, procs := range []int{1, 3, 8} {
			runtime.GOMAXPROCS(procs)
			c := NewChain(base, hiers)
			cfg := Config{K: 6, P: 0.3, Seed: root, Algorithm: alg}
			deltas := []Delta{
				{},
				testDelta(t, c.Table(), 40, 25, 18),
				{},
			}
			// The third non-trivial delta depends on the table after the
			// first one; build it lazily below.
			for r := 0; r < 4; r++ {
				var dl Delta
				if r < len(deltas) {
					dl = deltas[r]
				} else {
					dl = testDelta(t, c.Table(), 15, 30, 19)
				}
				pub, err := Republish(c, dl, cfg)
				if err != nil {
					t.Fatalf("%v GOMAXPROCS=%d release %d: %v", alg, procs, r, err)
				}
				got := pubBytes(t, pub)

				// From-scratch equivalence under the effective seed.
				scratch, err := Publish(c.Table(), hiers, Config{
					K: 6, P: 0.3, Seed: ReleaseSeed(root, r), Algorithm: alg,
				})
				if err != nil {
					t.Fatalf("%v GOMAXPROCS=%d release %d: from-scratch: %v", alg, procs, r, err)
				}
				if want := pubBytes(t, scratch); !bytes.Equal(got, want) {
					t.Fatalf("%v GOMAXPROCS=%d release %d: Republish differs from from-scratch Publish of the post-delta table",
						alg, procs, r)
				}

				// GOMAXPROCS invariance.
				if procs == 1 {
					golden = append(golden, got)
				} else if !bytes.Equal(got, golden[r]) {
					t.Fatalf("%v GOMAXPROCS=%d release %d: bytes differ from the GOMAXPROCS=1 chain", alg, procs, r)
				}
			}
		}
	}
}

// TestRepublishEmptyDeltasMatchFromScratch pins the byte-identity contract
// for pure re-perturbation releases, for every Phase-2 algorithm over many
// chain roots: each release of a chain of empty deltas equals a
// from-scratch Publish under ReleaseSeed(root, r). A TDS grouping depends on
// the Phase-1 draw, so a chain that carried a grouping over from the last
// release would fail here under most roots.
func TestRepublishEmptyDeltasMatchFromScratch(t *testing.T) {
	base, err := sal.Generate(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		for root := int64(900); root < 920; root++ {
			c := NewChain(base, hiers)
			cfg := Config{K: 6, P: 0.3, Seed: root, Algorithm: alg}
			for r := 0; r < 4; r++ {
				pub, err := Republish(c, Delta{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := Publish(base, hiers, Config{
					K: 6, P: 0.3, Seed: ReleaseSeed(root, r), Algorithm: alg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pubBytes(t, pub), pubBytes(t, scratch)) {
					t.Fatalf("%v root %d release %d: Republish differs from a from-scratch Publish", alg, root, r)
				}
			}
		}
	}
}

// TestPhase2GroupingIgnoresPhase1Seed pins what the transparency argument
// of docs/ATTACKS.md rests on: the KD and FullDomain groupings read only the
// QI columns, so Phase 2 over tables perturbed under different Phase-1
// seeds groups them identically.
func TestPhase2GroupingIgnoresPhase1Seed(t *testing.T) {
	base, err := sal.Generate(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	pb, err := perturb.NewPerturber(0.3, base.Schema.SensitiveDomain())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{KD, FullDomain} {
		var want *phase2Grouping
		for seed := int64(0); seed < 6; seed++ {
			dp, err := pb.TableSharded(base, par.SplitSeed(seed, 0), 1)
			if err != nil {
				t.Fatal(err)
			}
			grp, err := runPhase2(dp, hiers, Config{K: 6, P: 0.3, Seed: seed, Algorithm: alg}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = grp
				continue
			}
			if !reflect.DeepEqual(grp.boxes, want.boxes) || !reflect.DeepEqual(grp.groupRows, want.groupRows) {
				t.Fatalf("%v: the grouping under seed %d differs from seed 0's", alg, seed)
			}
			if (grp.recoding == nil) != (want.recoding == nil) {
				t.Fatalf("%v: seed %d recoding presence differs", alg, seed)
			}
			if grp.recoding != nil {
				for j, cut := range grp.recoding.Cuts {
					if !reflect.DeepEqual(cut.Nodes(), want.recoding.Cuts[j].Nodes()) {
						t.Fatalf("%v: seed %d cut on attribute %d differs from seed 0's", alg, seed, j)
					}
				}
			}
		}
	}
}

// TestApplyDelta covers the delta semantics: order-preserving deletes,
// appended inserts, owner continuity, and the validation failures.
func TestApplyDelta(t *testing.T) {
	base, err := sal.Generate(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	dl := testDelta(t, base, 5, 3, 10)
	next, err := ApplyDelta(base, dl)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != 50-5+3 {
		t.Fatalf("post-delta table has %d rows, want %d", next.Len(), 48)
	}
	deleted := map[int]bool{}
	for _, i := range dl.Deletes {
		deleted[i] = true
	}
	k := 0
	for i := 0; i < base.Len(); i++ {
		if deleted[i] {
			continue
		}
		if next.Owner(k) != i {
			t.Fatalf("kept row %d has owner %d, want original owner %d", k, next.Owner(k), i)
		}
		if !reflect.DeepEqual(next.Row(k), base.Row(i)) {
			t.Fatalf("kept row %d content drifted", k)
		}
		k++
	}
	for j := 0; j < 3; j++ {
		if got, want := next.Owner(k+j), base.Len()+j; got != want {
			t.Fatalf("inserted row %d has owner %d, want fresh ID %d", j, got, want)
		}
	}

	if same, err := ApplyDelta(base, Delta{}); err != nil || same != base {
		t.Fatalf("empty delta: got (%p, %v), want the parent table back", same, err)
	}
	if _, err := ApplyDelta(base, Delta{Deletes: []int{50}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if _, err := ApplyDelta(base, Delta{Deletes: []int{1, 1}}); err == nil {
		t.Fatal("duplicate delete accepted")
	}
	all := make([]int, base.Len())
	for i := range all {
		all[i] = i
	}
	if _, err := ApplyDelta(base, Delta{Deletes: all}); err == nil {
		t.Fatal("delete-everything delta accepted")
	}
}

// TestReadDelta covers the file format: comments, deletes, label inserts,
// and malformed lines.
func TestReadDelta(t *testing.T) {
	base, err := sal.Generate(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema := base.Schema
	labels := make([]string, 0, schema.Width())
	for j, a := range schema.QI {
		labels = append(labels, a.Label(base.QI(0, j)))
	}
	labels = append(labels, schema.Sensitive.Label(base.Sensitive(0)))

	text := "# churn for release 1\n-,3\n-,7\n+," + strings.Join(labels, ",") + "\n"
	dl, err := ReadDelta(schema, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dl.Deletes, []int{3, 7}) {
		t.Fatalf("deletes = %v, want [3 7]", dl.Deletes)
	}
	if dl.Inserts == nil || dl.Inserts.Len() != 1 {
		t.Fatalf("inserts = %v, want 1 row", dl.Inserts)
	}
	if !reflect.DeepEqual(dl.Inserts.Row(0), base.Row(0)) {
		t.Fatalf("insert decoded %v, want %v", dl.Inserts.Row(0), base.Row(0))
	}

	for _, bad := range []string{
		"-,x\n",
		"-,1,2\n",
		"+,onlyone\n",
		"*,3\n",
	} {
		if _, err := ReadDelta(schema, strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDelta(%q) accepted malformed input", bad)
		}
	}
}
