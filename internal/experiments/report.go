package experiments

import "pgpub/internal/attackfleet"

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
