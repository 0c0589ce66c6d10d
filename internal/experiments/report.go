package experiments

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"

	"pgpub/internal/attackfleet"
)

// PerfReport is the tracked BENCH_pg.json: an identity header — machine
// (GoVersion, NumCPU) and workload (N, Seed, K) — plus the result blocks the
// experiment commands merge into it. Each command rewrites only its own
// block and carries the others through unchanged. Timing is not tracked
// here: `bash bench/run.sh` and the `go test -bench` benchmarks own it.
type PerfReport struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	K         int    `json:"k"`
	// Fleet holds the adversary-at-scale breach curves (pgattack -exp fleet
	// -benchout), one report per (n, algorithm, shards).
	Fleet []*attackfleet.Report `json:"fleet,omitempty"`
	// Repub holds the multi-release breach-vs-release-count curves
	// (pgattack -exp repub -benchout), one report per (n, algorithm,
	// releases).
	Repub []*attackfleet.MultiReleaseReport `json:"repub,omitempty"`
	// DP holds the DP-vs-PG utility study (pgbench -exp dp -benchout).
	DP *DPReport `json:"dp,omitempty"`
}

// UpdateReport reads the report at path, lets update change its block, and
// writes the report back. A missing file starts an empty report; a file
// that cannot be read or parsed is an error and is left untouched, so a
// damaged report is never rewritten down to one block.
func UpdateReport(path string, update func(*PerfReport)) error {
	var rep PerfReport
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	update(&rep)
	if data, err = json.MarshalIndent(&rep, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PutFleet stores a fleet report, replacing the one with the same (n,
// algorithm, shards), and keeps the block sorted by that key.
func (r *PerfReport) PutFleet(rep *attackfleet.Report) {
	r.Fleet = put(r.Fleet, rep, func(x *attackfleet.Report) reportKey {
		return reportKey{x.N, x.Algorithm, x.Shards}
	})
}

// PutRepub stores a multi-release report, replacing the one with the same
// (n, algorithm, releases), and keeps the block sorted by that key.
func (r *PerfReport) PutRepub(rep *attackfleet.MultiReleaseReport) {
	r.Repub = put(r.Repub, rep, func(x *attackfleet.MultiReleaseReport) reportKey {
		return reportKey{x.N, x.Algorithm, x.Releases}
	})
}

// reportKey identifies one entry of a keyed block: the microdata size, the
// Phase-2 algorithm, and the block's own dimension (shards or releases).
type reportKey struct {
	n   int
	alg string
	m   int
}

// put replaces the entry of block with x's key, or appends x, and keeps the
// block sorted by key.
func put[T any](block []T, x T, key func(T) reportKey) []T {
	k := key(x)
	if i := slices.IndexFunc(block, func(old T) bool { return key(old) == k }); i >= 0 {
		block[i] = x
	} else {
		block = append(block, x)
	}
	slices.SortStableFunc(block, func(a, b T) int {
		ka, kb := key(a), key(b)
		return cmp.Or(cmp.Compare(ka.n, kb.n), strings.Compare(ka.alg, kb.alg), cmp.Compare(ka.m, kb.m))
	})
	return block
}
