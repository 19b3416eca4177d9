// Package merge implements the paper's merge utility (§3.1): it merges
// the per-node interval files of a run into a single interval file. The
// key functions are aligning the starting points of the individual files
// by their first global clock records, adjusting local timestamps for
// clock drift using the RMS-of-adjacent-slopes ratio (§2.2), merging the
// end-time-ordered inputs with a balanced (loser) tree, and planting
// zero-duration continuation pseudo-intervals at the beginning of every
// output frame so that a viewer jumping into the middle of the file can
// reconstruct the nested outer states (§3.3).
package merge

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/par"
	"tracefw/internal/profile"
)

// Estimator selects the clock-ratio scheme of §2.2.
type Estimator int

// Estimators.
const (
	EstimatorRMS       Estimator = iota // root mean square of adjacent slope segments (default)
	EstimatorLastPair                   // overall slope between first and last pair
	EstimatorPiecewise                  // per-segment slopes
	EstimatorNone                       // offset alignment only (ratio 1)
)

// String names the estimator.
func (e Estimator) String() string {
	switch e {
	case EstimatorRMS:
		return "rms"
	case EstimatorLastPair:
		return "lastpair"
	case EstimatorPiecewise:
		return "piecewise"
	case EstimatorNone:
		return "none"
	}
	return "estimator?"
}

// ParseEstimator converts a command-line name.
func ParseEstimator(s string) (Estimator, error) {
	switch s {
	case "rms", "":
		return EstimatorRMS, nil
	case "lastpair":
		return EstimatorLastPair, nil
	case "piecewise":
		return EstimatorPiecewise, nil
	case "none":
		return EstimatorNone, nil
	}
	return 0, fmt.Errorf("merge: unknown estimator %q", s)
}

// Options configures a merge.
type Options struct {
	Writer     interval.WriterOptions
	Estimator  Estimator
	OutlierTol float64 // clock-pair outlier filter tolerance; 0 disables
	// noPseudo disables pseudo-interval planting. Only this package's
	// tests and ablation benchmarks set it (export_test.go): they compare
	// against the prologue-free stream.
	noPseudo bool
	// Parallel is the worker count of the clock-pair extraction over
	// the inputs: 0 means GOMAXPROCS. The merge itself is one
	// synchronous pass; output is byte-identical at every value.
	Parallel int
}

// Result summarizes a merge.
type Result struct {
	Inputs  int
	Records int64 // records written (including pseudo-intervals)
	Pseudo  int64 // pseudo-interval records planted
	Ratios  []float64
	Anchors []clock.Pair // first clock pair per input
}

// ExtractPairs collects an individual interval file's global-clock pair
// records, frame by frame off the key codes and the Extras column.
func ExtractPairs(f *interval.File) ([]clock.Pair, error) {
	var pairs []clock.Pair
	err := interval.MapFrames([]*interval.File{f}, interval.MapOptions{Parallel: 1},
		func(_ int, fr *interval.Frame) ([]clock.Pair, error) {
			b, err := fr.Batch()
			if err != nil {
				return nil, err
			}
			var ps []clock.Pair
			for i, c := range b.Code[:b.N] {
				if b.Dict[c].Type != events.EvGlobalClock {
					continue
				}
				if x := b.ExtraRow(i); len(x) > 0 {
					ps = append(ps, clock.Pair{Global: clock.Time(x[0]), Local: b.Start[i]})
				}
			}
			return ps, nil
		},
		func(_ int, _ interval.FrameEntry, ps []clock.Pair) error {
			pairs = append(pairs, ps...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// adjusterFor builds the configured adjuster from a file's clock pairs.
func adjusterFor(pairs []clock.Pair, opts Options) (clock.Adjuster, float64) {
	if opts.OutlierTol > 0 {
		pairs = clock.FilterOutliers(pairs, opts.OutlierTol)
	}
	switch opts.Estimator {
	case EstimatorLastPair:
		a := clock.NewLastPairAdjuster(pairs)
		return a, a.R
	case EstimatorPiecewise:
		return clock.NewPiecewiseAdjuster(pairs), 1
	case EstimatorNone:
		a := &clock.RatioAdjuster{R: 1}
		if len(pairs) > 0 {
			a.G0, a.L0 = pairs[0].Global, pairs[0].Local
		}
		return a, 1
	default:
		a := clock.NewRatioAdjuster(pairs)
		return a, a.R
	}
}

// recordSource is a source whose current record the merge loop can
// read; implemented by the batch merge's stream and the live merge's
// LiveSource.
type recordSource interface {
	source
	Current() *interval.Record
}

// stream adapts one input file to the merge: it decodes, drops clock
// records, and adjusts timestamps into the global timebase.
type stream struct {
	sc  *interval.Scanner
	adj clock.Adjuster

	cur  interval.Record
	end  clock.Time
	done bool
	err  error
}

func (s *stream) CurrentEnd() (clock.Time, bool) { return s.end, s.done }

func (s *stream) Current() *interval.Record { return &s.cur }

func (s *stream) Advance() error {
	for {
		var err error
		s.cur, err = s.sc.NextRecord()
		if errors.Is(err, io.EOF) {
			s.done = true
			return nil
		}
		if err != nil {
			s.err = err
			s.done = true
			return err
		}
		r := &s.cur
		if r.Type == events.EvGlobalClock {
			continue
		}
		s.end = Adjust(s.adj, r)
		return nil
	}
}

// Adjust moves r into adj's global timebase and returns its adjusted
// end: start and end go through the same monotone mapping and the
// duration is derived, so independent rounding of R·S and R·D cannot
// make adjusted end times regress within a stream.
func Adjust(adj clock.Adjuster, r *interval.Record) clock.Time {
	end := adj.Global(r.End())
	r.Start = adj.Global(r.Start)
	r.Dura = end - r.Start
	return end
}

// Merge merges the individual interval files into dst.
func Merge(files []*interval.File, dst io.WriteSeeker, opts Options) (*Result, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("merge: no input files")
	}
	res := &Result{Inputs: len(files)}

	// Per-input clock adjustment. The pair-extraction scans are
	// independent, so they fan out over the worker pool; adjusters are
	// then built sequentially in input order to keep Result
	// deterministic.
	allPairs := make([][]clock.Pair, len(files))
	if err := par.Do(len(files), opts.Parallel, func(i int) error {
		pairs, err := ExtractPairs(files[i])
		if err != nil {
			return fmt.Errorf("merge: input %d: %w", i, err)
		}
		allPairs[i] = pairs
		return nil
	}); err != nil {
		return nil, err
	}
	adjs := make([]clock.Adjuster, len(files))
	for i, pairs := range allPairs {
		adj, ratio := adjusterFor(pairs, opts)
		adjs[i] = adj
		res.Ratios = append(res.Ratios, ratio)
		if len(pairs) > 0 {
			res.Anchors = append(res.Anchors, pairs[0])
		} else {
			res.Anchors = append(res.Anchors, clock.Pair{})
		}
	}

	// Merged header: union of thread tables (sorted by node, ltid) and
	// marker tables.
	hdrs := make([]interval.Header, len(files))
	for i, f := range files {
		hdrs[i] = f.Header
	}
	hdr, err := UnionHeader(hdrs)
	if err != nil {
		return nil, err
	}

	ms := &mergeState{res: res, trk: interval.NewOpenStates(hdr.Threads)}
	w, err := interval.NewWriter(dst, hdr, ms.writerOptions(opts))
	if err != nil {
		return nil, err
	}

	srcs := make([]recordSource, len(files))
	for i, f := range files {
		srcs[i] = &stream{sc: f.Scan(), adj: adjs[i]}
	}
	if err := ms.run(w, srcs); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// UnionHeader builds a merged-file header from the per-node input
// headers: the union of the thread tables sorted by (node, ltid) and
// the union of the marker tables, rejecting conflicting identifier
// assignments. Both the batch merge and the streaming ingest path
// (which knows its inputs' headers before any records exist) build
// their output header here.
func UnionHeader(hdrs []interval.Header) (interval.Header, error) {
	hdr := interval.Header{
		HeaderVersion: interval.CurrentHeaderVersion,
		FieldMask:     profile.MaskMerged,
		Markers:       map[uint64]string{},
	}
	for i, h := range hdrs {
		if i == 0 {
			hdr.ProfileVersion = h.ProfileVersion
		} else if h.ProfileVersion != hdr.ProfileVersion {
			return interval.Header{}, fmt.Errorf("merge: input %d profile version %#x differs from %#x",
				i, h.ProfileVersion, hdr.ProfileVersion)
		}
		hdr.Threads = append(hdr.Threads, h.Threads...)
		for id, s := range h.Markers {
			if prev, ok := hdr.Markers[id]; ok && prev != s {
				return interval.Header{}, fmt.Errorf("merge: marker id %d means %q and %q; convert the run with a shared registry", id, prev, s)
			}
			hdr.Markers[id] = s
		}
	}
	sort.Slice(hdr.Threads, func(i, j int) bool {
		a, b := hdr.Threads[i], hdr.Threads[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.LTID < b.LTID
	})
	return hdr, nil
}

// mergeState is the write-side state shared by the batch merge and the
// live (streaming) merge: the open-state tracker and the last written
// end time feed the FramePrologue closure, so both paths plant
// identical pseudo-intervals and are byte-identical by construction.
type mergeState struct {
	res     *Result
	trk     *interval.OpenStates
	lastEnd clock.Time
}

// writerOptions installs the pseudo-interval frame prologue over the
// caller's writer options.
func (ms *mergeState) writerOptions(opts Options) interval.WriterOptions {
	wopts := opts.Writer
	if !opts.noPseudo {
		wopts.FramePrologue = func() []interval.Record {
			ps := ms.trk.Pseudos(ms.lastEnd)
			ms.res.Pseudo += int64(len(ps))
			ms.res.Records += int64(len(ps))
			return ps
		}
	}
	return wopts
}

// run is the k-way merge write loop: advance every source to its first
// record, then repeatedly pick the smallest (end, input index) record,
// write it, track open states, and refill. It does not close the
// writer; callers own that.
func (ms *mergeState) run(w *interval.Writer, srcs []recordSource) error {
	streams := make([]source, len(srcs))
	for i, st := range srcs {
		if err := st.Advance(); err != nil {
			return fmt.Errorf("merge: input %d: %w", i, err)
		}
		streams[i] = st
	}
	lt := newLoserTree(streams)
	first := true
	for {
		i := lt.Min()
		if i < 0 {
			break
		}
		st := srcs[i]
		r := st.Current() // valid until st advances
		if first {
			ms.lastEnd = r.End()
			first = false
		}
		if err := w.Add(r); err != nil {
			return fmt.Errorf("merge: writing record from input %d: %w", i, err)
		}
		ms.res.Records++
		ms.lastEnd = r.End()
		ms.trk.Observe(r)
		if err := st.Advance(); err != nil {
			return fmt.Errorf("merge: input %d: %w", i, err)
		}
		lt.Fix(i)
	}
	return nil
}

// MergeFiles merges interval files on disk into outPath.
func MergeFiles(paths []string, outPath string, opts Options) (*Result, error) {
	files := make([]*interval.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		// Inputs are read frame by frame; a sidecar beside one would only
		// be parsed and dropped.
		f, err := interval.Open(p, interval.WithPyramid(false))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	res, err := Merge(files, out, opts)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return res, err
}
