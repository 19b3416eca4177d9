package convert

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"tracefw/internal/interval"
	"tracefw/internal/par"
)

// convertMany is the deterministic parallel conversion core shared by
// ConvertAll and ConvertBuffers. It runs in two phases around a
// canonicalization barrier:
//
//  1. Table pass (parallel): every input is scanned once for its node
//     id, thread table, and ordered marker strings. Two inputs claiming
//     the same node are rejected — they would target the same output.
//  2. Marker canonicalization (sequential, node order): identifiers are
//     assigned by walking the inputs in ascending node order and taking
//     each file's defines, then its tolerant-mode placeholders, in
//     first-seen order. This is precisely the assignment a sequential
//     loop of Convert calls over node-sorted inputs produces, so every
//     output file — header marker tables included — is byte-identical
//     to that loop's, regardless of worker schedule or input order.
//  3. Record pass (parallel): each input is converted with the frozen
//     registry; workers only read identifiers, never assign them.
//
// openSrc may be called twice per input (once per pass); results[i]
// always corresponds to input i. describe names an input in errors.
func convertMany(
	n int,
	openSrc func(i int) (io.ReadSeeker, io.Closer, error),
	openDst func(i int) (io.WriteSeeker, io.Closer, error),
	describe func(i int) string,
	opts Options,
) ([]*Result, error) {
	markers := opts.Markers
	if markers == nil {
		markers = NewMarkerRegistry()
	}
	workers := par.Workers(opts.Parallel, n)

	// Phase 1: parallel table pass.
	tps := make([]*tablePass, n)
	err := par.Do(n, workers, func(i int) error {
		src, closer, err := openSrc(i)
		if err != nil {
			return fmt.Errorf("convert: %s: %w", describe(i), err)
		}
		tp, err := scanTables(src)
		if closer != nil {
			if cerr := closer.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("convert: %s: %w", describe(i), err)
		}
		tps[i] = tp
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: canonical marker assignment in node order, snapshotting
	// the header table each file would have seen from a sequential loop
	// (markers known after its own table pass, before its record pass).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tps[order[a]].node < tps[order[b]].node })
	seenNode := map[int]int{}
	for _, i := range order {
		if j, dup := seenNode[tps[i].node]; dup {
			return nil, fmt.Errorf("convert: inputs %s and %s both claim node %d; each node must be converted exactly once",
				describe(j), describe(i), tps[i].node)
		}
		seenNode[tps[i].node] = i
	}
	hdrs := make([]map[uint64]string, n)
	for _, i := range order {
		for _, s := range tps[i].defines {
			markers.ID(s)
		}
		hdrs[i] = markers.Table()
		if opts.Tolerant {
			for _, s := range tps[i].placeholders {
				markers.ID(s)
			}
		}
	}

	// Phase 3: parallel record pass against the frozen registry.
	results := make([]*Result, n)
	err = par.Do(n, workers, func(i int) error {
		src, srcCloser, err := openSrc(i)
		if err != nil {
			return fmt.Errorf("convert: %s: %w", describe(i), err)
		}
		defer func() {
			if srcCloser != nil {
				srcCloser.Close()
			}
		}()
		dst, dstCloser, err := openDst(i)
		if err != nil {
			return fmt.Errorf("convert: %s: %w", describe(i), err)
		}
		res, err := convertRecords(src, dst, opts, tps[i], markers, hdrs[i])
		if dstCloser != nil {
			if cerr := dstCloser.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("convert: %s: %w", describe(i), err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ConvertAll converts a run's raw trace files (rawPaths[i] → outPaths[i])
// sharing one marker registry, so the same marker string receives the
// same global identifier in every output file. Conversions fan out over
// a bounded worker pool (Options.Parallel; 0 = GOMAXPROCS); the outputs
// are byte-identical to a sequential loop of Convert calls over the same
// inputs sorted by node id, whatever the input order or worker count.
func ConvertAll(rawPaths, outPaths []string, opts Options) ([]*Result, error) {
	if len(rawPaths) != len(outPaths) {
		return nil, fmt.Errorf("convert: %d inputs, %d outputs", len(rawPaths), len(outPaths))
	}
	return convertMany(len(rawPaths),
		func(i int) (io.ReadSeeker, io.Closer, error) {
			f, err := os.Open(rawPaths[i])
			return f, f, err
		},
		func(i int) (io.WriteSeeker, io.Closer, error) {
			f, err := os.Create(outPaths[i])
			return f, f, err
		},
		func(i int) string { return rawPaths[i] },
		opts)
}

// ConvertBuffers converts in-memory raw traces, returning the interval
// files as SeekBuffers; used by tests and the in-memory pipeline. It
// shares ConvertAll's deterministic parallel core.
func ConvertBuffers(raws [][]byte, opts Options) ([]*interval.SeekBuffer, []*Result, error) {
	outs := make([]*interval.SeekBuffer, len(raws))
	results, err := convertMany(len(raws),
		func(i int) (io.ReadSeeker, io.Closer, error) {
			return bytes.NewReader(raws[i]), nil, nil
		},
		func(i int) (io.WriteSeeker, io.Closer, error) {
			outs[i] = interval.NewSeekBuffer()
			return outs[i], nil, nil
		},
		func(i int) string { return fmt.Sprintf("buffer %d", i) },
		opts)
	if err != nil {
		return nil, nil, err
	}
	return outs, results, nil
}
