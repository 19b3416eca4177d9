//go:build !race

package stats_test

const raceEnabled = false
