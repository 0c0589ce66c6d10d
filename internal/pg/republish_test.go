package pg

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/obs"
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

// TestRepublishMatchesFromScratch is the acceptance contract of the
// incremental path: for every Phase-2 algorithm and several worker counts,
// each release of a chain (base, delta, empty delta, delta) is byte-
// identical to a from-scratch Publish of the post-delta table under the
// effective seed ReleaseSeed(root, r). The empty-delta release exercises
// the cached-grouping fast path against the recomputing publish.
func TestRepublishMatchesFromScratch(t *testing.T) {
	base, err := sal.Generate(3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	const root = 907
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		var golden [][]byte // per release, from workers=1
		for _, workers := range []int{1, 3, 8} {
			c := NewChain(base, hiers)
			cfg := Config{K: 6, P: 0.3, Seed: root, Algorithm: alg, Workers: workers}
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
					t.Fatalf("%v workers=%d release %d: %v", alg, workers, r, err)
				}
				got := pubBytes(t, pub)

				// From-scratch equivalence under the effective seed.
				scratch, err := Publish(c.Table(), hiers, Config{
					K: 6, P: 0.3, Seed: ReleaseSeed(root, r), Algorithm: alg, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%v workers=%d release %d: from-scratch: %v", alg, workers, r, err)
				}
				if want := pubBytes(t, scratch); !bytes.Equal(got, want) {
					t.Fatalf("%v workers=%d release %d: Republish differs from from-scratch Publish of the post-delta table",
						alg, workers, r)
				}

				// Worker-count invariance.
				if workers == 1 {
					golden = append(golden, got)
				} else if !bytes.Equal(got, golden[r]) {
					t.Fatalf("%v workers=%d release %d: bytes differ from sequential chain", alg, workers, r)
				}
			}
		}
	}
}

// TestRepublishReusesPhase2 pins the incremental win: an empty delta must
// reuse the cached grouping (repub.phase2.reused), a row-touching delta
// must recompute (repub.phase2.recomputed), and release 0 of a chain must
// equal a plain Publish under the root seed.
func TestRepublishReusesPhase2(t *testing.T) {
	base, err := sal.Generate(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	reg := obs.NewRegistry()
	c := NewChain(base, hiers)
	cfg := Config{K: 6, P: 0.3, Seed: 41, Metrics: reg}

	r0, err := Republish(c, Delta{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Publish(base, hiers, Config{K: 6, P: 0.3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pubBytes(t, r0), pubBytes(t, plain)) {
		t.Fatal("release 0 differs from a plain Publish under the root seed")
	}

	if _, err := Republish(c, Delta{}, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("repub.phase2.reused").Value(); got != 1 {
		t.Fatalf("repub.phase2.reused = %d after an empty delta, want 1", got)
	}
	if _, err := Republish(c, testDelta(t, c.Table(), 10, 10, 6), cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("repub.phase2.recomputed").Value(); got != 2 {
		t.Fatalf("repub.phase2.recomputed = %d, want 2 (release 0 and the row-touching delta)", got)
	}
	if got := reg.Counter("repub.releases").Value(); got != 3 {
		t.Fatalf("repub.releases = %d, want 3", got)
	}

	// TDS scores its cuts on the perturbed sensitive values, so an empty
	// delta under TDS must recompute the grouping, never reuse it.
	treg := obs.NewRegistry()
	tc := NewChain(base, hiers)
	tcfg := Config{K: 6, P: 0.3, Seed: 41, Algorithm: TDS, Metrics: treg}
	for r := 0; r < 2; r++ {
		if _, err := Republish(tc, Delta{}, tcfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := treg.Counter("repub.phase2.reused").Value(); got != 0 {
		t.Fatalf("TDS repub.phase2.reused = %d after an empty delta, want 0", got)
	}
	if got := treg.Counter("repub.phase2.recomputed").Value(); got != 2 {
		t.Fatalf("TDS repub.phase2.recomputed = %d, want 2 (release 0 and the empty delta)", got)
	}
}

// TestRepublishEmptyDeltasMatchFromScratch pins the byte-identity contract
// on the cached-grouping path for every Phase-2 algorithm over many chain
// roots: each release of a chain of empty deltas equals a from-scratch
// Publish under ReleaseSeed(root, r). A TDS grouping depends on the
// Phase-1 draw, so a chain that reused it would fail here under most roots.
func TestRepublishEmptyDeltasMatchFromScratch(t *testing.T) {
	base, err := sal.Generate(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	for _, alg := range []Algorithm{KD, TDS, FullDomain} {
		for root := int64(900); root < 920; root++ {
			c := NewChain(base, hiers)
			cfg := Config{K: 6, P: 0.3, Seed: root, Algorithm: alg, Workers: 1}
			for r := 0; r < 4; r++ {
				pub, err := Republish(c, Delta{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := Publish(base, hiers, Config{
					K: 6, P: 0.3, Seed: ReleaseSeed(root, r), Algorithm: alg, Workers: 1,
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

// TestPhase2GroupingIgnoresPhase1Seed pins what the cached-grouping path
// rests on: the KD and FullDomain groupings read only the QI columns, so
// they are the same under every Phase-1 seed.
func TestPhase2GroupingIgnoresPhase1Seed(t *testing.T) {
	base, err := sal.Generate(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	hiers := sal.Hierarchies(base.Schema)
	for _, alg := range []Algorithm{KD, FullDomain} {
		var want *phase2Grouping
		for seed := int64(0); seed < 6; seed++ {
			_, grp, err := publish(base, hiers, Config{K: 6, P: 0.3, Seed: seed, Algorithm: alg, Workers: 1}, nil)
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
