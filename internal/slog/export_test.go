package slog

// NoCrossingCopies returns o with the pseudo copies of frame-spanning
// arrows turned off — a setter for the test that checks the copies are
// what puts a long arrow into the middle frames.
func NoCrossingCopies(o Options) Options {
	o.noCrossingCopies = true
	return o
}

// WithBins returns o with a preview of n bins instead of
// interval.DefaultBins — a setter for the tests that check the preview at
// other widths.
func WithBins(o Options, n int) Options {
	o.bins = n
	return o
}
