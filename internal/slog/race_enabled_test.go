//go:build race

package slog_test

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation-count tests skip under it.
const raceEnabled = true
