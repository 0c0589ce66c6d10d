// Package dp is the differential-privacy layer of the serving stack: a
// Laplace mechanism over the aggregate answers the exact engine computes,
// and per-API-key ε-budget accounting that turns pgserve into a
// multi-tenant DP query server (docs/DP.md).
//
// The mechanism is deliberately deterministic given its inputs: every noise
// draw is a pure function of (root seed, API key, release CRC, canonical
// query encoding, draw index). Repeating an identical query therefore
// returns the identical noised answer — an analyst cannot average the noise
// away by asking again — and an offline tool holding the same seed
// (pgquery's DP mode) reproduces a served answer bit for bit, which is what
// keeps the serving equivalence tests exact. The root seed is the secret:
// production deployments draw it randomly at startup, tests pin it.
//
// Budgets are the multi-tenant half. A Ledger maps API keys to (ε_total,
// ε_per_query) pairs loaded from a budgets file; every answered query
// atomically spends ε_per_query from its key's lifetime total, and a spend
// that would overshoot is refused — the server turns that refusal into
// 429 + Retry-After, mirroring the admission limiter's shedding shape. The
// ledger hangs off the long-lived server, not the per-release state, so
// spent budget survives hot-swap reloads.
package dp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Mechanism is one Laplace noise source: the root seed (secret in
// production, pinned under test) plus the serving release's CRC, which is
// mixed into every draw so a hot-swap to a new release re-keys the noise.
type Mechanism struct {
	// Seed is the root noise seed. Everyone who holds it can subtract the
	// noise, so production servers draw it from crypto/rand at startup.
	Seed int64
	// CRC identifies the release being served: the snapshot header CRC at a
	// single-snapshot server, the manifest file CRC at a coordinator.
	CRC uint32
}

// Noise returns the Laplace draw for one answer component: apiKey and
// queryKey (the canonical query encoding of internal/serve) identify the
// question, draw separates components of one answer (AVG noises its sum and
// weight independently), and scale is the Laplace b = sensitivity/ε. A
// non-positive scale (an all-zero value vector has zero sensitivity) adds
// nothing.
func (m Mechanism) Noise(apiKey, queryKey string, draw int, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	return LaplaceQuantile(m.Uniform(apiKey, queryKey, draw), scale)
}

// Answer is the one place a Laplace scale is derived from ε: it noises one
// exact answer of op, charged eps — the estimate est of a count or naive
// count, the region's sum and weight of a sum or avg — with sens a sum's
// global sensitivity. COUNT and NAIVE add Lap(1/ε) (GS = 1), SUM adds
// Lap(sens/ε), and AVG splits ε in half between the region sum
// (Lap(sens/(ε/2)), draw 0) and weight (Lap(1/(ε/2)), draw 1) and returns
// their quotient — an error when the noised weight is not positive.
func (m Mechanism) Answer(apiKey, queryKey, op string, est, sum, weight, eps, sens float64) (float64, error) {
	switch op {
	case "count", "naive":
		return est + m.Noise(apiKey, queryKey, 0, 1/eps), nil
	case "sum":
		return sum + m.Noise(apiKey, queryKey, 0, sens/eps), nil
	case "avg":
		half := eps / 2
		sum += m.Noise(apiKey, queryKey, 0, sens/half)
		weight += m.Noise(apiKey, queryKey, 1, 1/half)
		if weight <= 0 {
			return 0, errors.New("region estimated empty under DP noise")
		}
		return sum / weight, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

// Uniform derives the draw's uniform in (0,1): the keying material is
// hashed (FNV-1a) into a stream index, pushed through the same splitmix64
// finalizer the pipeline uses for seed splitting (par.SplitSeed), and the
// top 53 bits become the mantissa. Exported so tests and offline tools can
// inspect the u behind a draw.
func (m Mechanism) Uniform(apiKey, queryKey string, draw int) float64 {
	h := fnv.New64a()
	h.Write([]byte(apiKey))   //nolint:errcheck // hash.Hash never errors
	h.Write([]byte{0})        //nolint:errcheck
	h.Write([]byte(queryKey)) //nolint:errcheck
	var tail [9]byte
	binary.LittleEndian.PutUint32(tail[1:5], m.CRC)
	binary.LittleEndian.PutUint32(tail[5:9], uint32(draw))
	h.Write(tail[:]) //nolint:errcheck
	return uniform53(splitSeed(m.Seed, h.Sum64()))
}

// splitSeed is par.SplitSeed with a 64-bit stream index: the same
// golden-ratio increment and splitmix64 finalizer, so the dp stream is one
// more consumer of the pipeline's seed-splitting discipline.
func splitSeed(root int64, stream uint64) uint64 {
	z := uint64(root) + (stream+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// uniform53 maps a 64-bit word to the open interval (0,1): the top 52 bits
// become the lattice index, offset by half a step so neither endpoint is
// reachable — both (0+0.5)/2^52 and (2^52-1+0.5)/2^52 are exactly
// representable, which a 53-bit lattice cannot guarantee — and the quantile
// transform stays finite.
func uniform53(x uint64) float64 {
	return (float64(x>>12) + 0.5) / (1 << 52)
}
