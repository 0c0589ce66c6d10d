package repub

import (
	"path/filepath"
	"strings"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/sal"
	"pgpub/internal/snapshot"
)

// buildChainFiles publishes a T-release chain to dir the way pgpublish
// -base/-delta does: pg.Chain for the pipeline, ChainMetadataFor for the
// accounting, snapshot.SaveRelease for the files. Returns the paths in
// release order.
func buildChainFiles(t *testing.T, dir string, T int, seed int64) []string {
	t.Helper()
	base, err := sal.Generate(1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	const lambda, rho1 = 0.5, 0.4
	hiers := sal.Hierarchies(base.Schema)
	c := pg.NewChain(base, hiers)
	cfg := pg.Config{K: 6, P: 0.3, Seed: seed}
	paths := make([]string, 0, T)
	var parentCRC uint32
	for r := 0; r < T; r++ {
		dl := pg.Delta{}
		if r > 0 && r%2 == 1 {
			for i := 0; i < 10; i++ {
				dl.Deletes = append(dl.Deletes, i*31)
			}
			ins, err := sal.Generate(20, int64(100+r))
			if err != nil {
				t.Fatal(err)
			}
			dl.Inserts = ins
		}
		inserts := 0
		if dl.Inserts != nil {
			inserts = dl.Inserts.Len()
		}
		pub, err := pg.Republish(c, dl, cfg)
		if err != nil {
			t.Fatalf("release %d: %v", r, err)
		}
		meta, err := pub.Metadata(lambda, rho1)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ChainMetadataFor(r, parentCRC, inserts, len(dl.Deletes), c.Table().Len(),
			pub.P, lambda, pub.K, pub.Schema.SensitiveDomain())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "r"+string(rune('0'+r))+".pgsnap")
		if err := snapshot.SaveRelease(path, pub, meta.Guarantee, chain); err != nil {
			t.Fatal(err)
		}
		if parentCRC, err = snapshot.HeaderCRC(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestVerifyChain covers the happy path and every class of chain break:
// reordering, a skipped release, a foreign parent, and a chainless file.
func TestVerifyChain(t *testing.T) {
	dir := t.TempDir()
	paths := buildChainFiles(t, dir, 4, 23)

	infos, err := VerifyChain(paths)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if len(infos) != 4 {
		t.Fatalf("VerifyChain returned %d releases, want 4", len(infos))
	}
	for i, info := range infos {
		if info.Chain.Release != i {
			t.Fatalf("release %d reported as %d", i, info.Chain.Release)
		}
		if i > 0 && infos[i].Chain.ComposedDelta < infos[i-1].Chain.ComposedDelta {
			t.Fatalf("composed bound not monotone at release %d", i)
		}
	}

	// Reordered chain: the numbering check fires.
	if _, err := VerifyChain([]string{paths[1], paths[0]}); err == nil || !strings.Contains(err.Error(), "numbered") {
		t.Fatalf("reordered chain: err = %v", err)
	}
	// Skipped release: r2's parent is r1, not r0.
	if _, err := VerifyChain([]string{paths[0], paths[2]}); err == nil || !strings.Contains(err.Error(), "numbered") {
		t.Fatalf("skipped release: err = %v", err)
	}
	// Foreign parent: a second chain's r1 does not descend from this r0.
	other := buildChainFiles(t, t.TempDir(), 2, 77)
	if _, err := VerifyChain([]string{paths[0], other[1]}); err == nil || !strings.Contains(err.Error(), "chain link") {
		t.Fatalf("foreign parent: err = %v", err)
	}
	// Chainless release.
	rel0, err := snapshot.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.pgsnap")
	if err := snapshot.Save(plain, rel0.Pub, rel0.Guarantee); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain([]string{plain}); err == nil || !strings.Contains(err.Error(), "release-chain block") {
		t.Fatalf("chainless release: err = %v", err)
	}
	// Tampered accounting.
	bad := *infos[1].Chain
	bad.OddsRatio += 0.125
	rel1, err := snapshot.Load(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(dir, "tampered.pgsnap")
	if err := snapshot.SaveRelease(tampered, rel1.Pub, rel1.Guarantee, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain([]string{paths[0], tampered}); err == nil || !strings.Contains(err.Error(), "accounting") {
		t.Fatalf("tampered accounting: err = %v", err)
	}
}

// TestChainAccountingMatchesBounds pins ChainAccounting to the bound
// functions it summarizes.
func TestChainAccountingMatchesBounds(t *testing.T) {
	const p, lambda = 0.3, 0.5
	const k, domain = 6, 50
	for T := 1; T <= 5; T++ {
		r, composed, err := ChainAccounting(T, p, lambda, k, domain)
		if err != nil {
			t.Fatal(err)
		}
		if want := OddsRatioBound(p, lambda, k, domain); r != want {
			t.Fatalf("T=%d: odds ratio %v, want %v", T, r, want)
		}
		want, err := ComposedGrowthBound(T, p, lambda, k, domain)
		if err != nil {
			t.Fatal(err)
		}
		if composed != want {
			t.Fatalf("T=%d: composed %v, want %v", T, composed, want)
		}
	}
}
