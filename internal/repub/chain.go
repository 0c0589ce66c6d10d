package repub

import (
	"fmt"
	"math"

	"pgpub/internal/pg"
	"pgpub/internal/snapshot"
)

// accountingTol is the tolerance for recomputed-vs-stored guarantee
// accounting: the stored float64s are exact function values, so anything
// beyond rounding noise is corruption or a mislabeled release.
const accountingTol = 1e-9

// ChainAccounting computes the cross-release guarantee accounting a release
// snapshot records: the per-release odds-ratio bound R and the composed
// T-release breach-probability growth bound Δ_T, under the release's
// announced retention probability p, adversary skew λ, group floor k, and
// sensitive domain size.
func ChainAccounting(T int, p, lambda float64, k, domain int) (oddsRatio, composedDelta float64, err error) {
	composedDelta, err = ComposedGrowthBound(T, p, lambda, k, domain)
	if err != nil {
		return 0, 0, err
	}
	return OddsRatioBound(p, lambda, k, domain), composedDelta, nil
}

// ChainMetadataFor stamps release `release`'s chain block: the delta
// summary plus the guarantee accounting for the T = release+1 releases
// published so far.
func ChainMetadataFor(release int, parentCRC uint32, inserts, deletes, sourceRows int, p, lambda float64, k, domain int) (*snapshot.ChainMetadata, error) {
	r, composed, err := ChainAccounting(release+1, p, lambda, k, domain)
	if err != nil {
		return nil, err
	}
	return &snapshot.ChainMetadata{
		Release:       release,
		ParentCRC:     parentCRC,
		Inserts:       inserts,
		Deletes:       deletes,
		SourceRows:    sourceRows,
		OddsRatio:     r,
		ComposedDelta: composed,
	}, nil
}

// ReleaseInfo is VerifyChain's per-release report.
type ReleaseInfo struct {
	// Path is the snapshot file.
	Path string
	// CRC is the file's header CRC — the identity the next release's
	// ParentCRC must name.
	CRC uint32
	// Chain is the verified release-chain block.
	Chain *snapshot.ChainMetadata
	// Rows is the published row count |D*|.
	Rows int
}

// VerifyChain walks a release chain r0..rN given its snapshot paths in
// release order and checks the multi-release contract end to end:
//
//   - every snapshot loads under the fully-verifying reader (every CRC,
//     every structural validator) and carries a release-chain block;
//   - release numbers are 0..N in order, and each ParentCRC equals the
//     previous file's header CRC — the chain is unbroken and unreordered;
//   - the publication parameters the guarantees depend on (P, K, algorithm,
//     sensitive domain, certified λ) are constant across the chain;
//   - each release's SourceRows is consistent with its parent's plus the
//     recorded delta summary;
//   - the stored guarantee accounting equals ChainAccounting recomputed
//     from the release's own parameters, and the composed bound Δ_T is
//     non-decreasing in T (Theorem 1–3 composition only loses ground as
//     releases accumulate).
//
// On success it returns one ReleaseInfo per release.
func VerifyChain(paths []string) ([]ReleaseInfo, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("repub: empty chain")
	}
	infos := make([]ReleaseInfo, 0, len(paths))
	var prev ReleaseInfo
	var prevPub *pg.Published
	var prevLambda float64
	for i, path := range paths {
		rel, err := snapshot.Load(path)
		if err != nil {
			return nil, fmt.Errorf("repub: release %d: %w", i, err)
		}
		pub, gm, chain := rel.Pub, rel.Guarantee, rel.Chain
		if chain == nil {
			return nil, fmt.Errorf("repub: release %d (%s) has no release-chain block (not published as part of a chain)", i, path)
		}
		if chain.Release != i {
			return nil, fmt.Errorf("repub: release %d (%s) is numbered %d — chain out of order or incomplete", i, path, chain.Release)
		}
		if i == 0 {
			if chain.Inserts != 0 || chain.Deletes != 0 {
				return nil, fmt.Errorf("repub: release 0 records a delta (%d inserts, %d deletes)", chain.Inserts, chain.Deletes)
			}
		} else {
			if chain.ParentCRC != prev.CRC {
				return nil, fmt.Errorf("repub: release %d (%s) names parent %08x, release %d's header CRC is %08x — broken chain link",
					i, path, chain.ParentCRC, i-1, prev.CRC)
			}
			if pub.P != prevPub.P || pub.K != prevPub.K || pub.Algorithm != prevPub.Algorithm {
				return nil, fmt.Errorf("repub: release %d changes parameters (p=%v k=%d %v, chain has p=%v k=%d %v) — guarantees do not compose across them",
					i, pub.P, pub.K, pub.Algorithm, prevPub.P, prevPub.K, prevPub.Algorithm)
			}
			if pub.Schema.SensitiveDomain() != prevPub.Schema.SensitiveDomain() {
				return nil, fmt.Errorf("repub: release %d changes the sensitive domain (%d, chain has %d)",
					i, pub.Schema.SensitiveDomain(), prevPub.Schema.SensitiveDomain())
			}
			if want := prev.Chain.SourceRows - chain.Deletes + chain.Inserts; chain.SourceRows != want {
				return nil, fmt.Errorf("repub: release %d records %d source rows; parent's %d %+d inserts %+d deletes gives %d",
					i, chain.SourceRows, prev.Chain.SourceRows, chain.Inserts, -chain.Deletes, want)
			}
			if chain.ComposedDelta+accountingTol < prev.Chain.ComposedDelta {
				return nil, fmt.Errorf("repub: release %d's composed bound %v shrinks below release %d's %v",
					i, chain.ComposedDelta, i-1, prev.Chain.ComposedDelta)
			}
		}

		// Recompute the accounting. The certified λ lives in the guarantee
		// block; a chained release must carry one, or the accounting has no
		// stated adversary class.
		if gm == nil {
			return nil, fmt.Errorf("repub: release %d (%s) has no guarantee block to recompute the accounting against", i, path)
		}
		if i > 0 && gm.Lambda != prevLambda {
			return nil, fmt.Errorf("repub: release %d changes λ (%v, chain has %v)", i, gm.Lambda, prevLambda)
		}
		r, composed, err := ChainAccounting(i+1, pub.P, gm.Lambda, pub.K, pub.Schema.SensitiveDomain())
		if err != nil {
			return nil, fmt.Errorf("repub: release %d: %w", i, err)
		}
		if math.Abs(r-chain.OddsRatio) > accountingTol || math.Abs(composed-chain.ComposedDelta) > accountingTol {
			return nil, fmt.Errorf("repub: release %d stores accounting (R=%v, Δ=%v), parameters give (R=%v, Δ=%v)",
				i, chain.OddsRatio, chain.ComposedDelta, r, composed)
		}

		info := ReleaseInfo{Path: path, CRC: rel.CRC, Chain: chain, Rows: pub.Len()}
		infos = append(infos, info)
		prev, prevPub, prevLambda = info, pub, gm.Lambda
	}
	return infos, nil
}
