//go:build race

package stats_test

// raceEnabled reports whether the race detector is on; under it
// sync.Pool drops items at random, so allocation-count tests skip.
const raceEnabled = true
