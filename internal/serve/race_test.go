//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so allocation counts are not reproducible.
const raceEnabled = true
