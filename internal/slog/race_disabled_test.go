//go:build !race

package slog_test

const raceEnabled = false
