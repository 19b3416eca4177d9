package slog

import (
	"io"
	"os"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
)

// mergePlanned merges files into dst with the SLOG build's first pass
// riding on the merge: a Planner over the merged thread table (the one
// merge.Merge writes, from the same UnionHeader) observes every frame the
// merge writer seals. mopts.Writer.OnFrame is the planner's.
func mergePlanned(files []*interval.File, dst io.WriteSeeker, mopts merge.Options, sopts Options) (*Planner, *merge.Result, error) {
	hdrs := make([]interval.Header, len(files))
	for i, f := range files {
		hdrs[i] = f.Header
	}
	hdr, err := merge.UnionHeader(hdrs)
	if err != nil {
		return nil, nil, err
	}
	p := NewPlanner(hdr.Threads, sopts)
	mopts.Writer.OnFrame = p.Observe
	mres, err := merge.Merge(files, dst, mopts)
	if err != nil {
		return nil, nil, err
	}
	return p, mres, nil
}

// MergeResult reports what MergeFiles built.
type MergeResult struct {
	Merge *merge.Result
	Slog  *BuildResult
	// Sidecar is nil unless a pyramid was asked for.
	Sidecar *interval.SidecarBuild
	// FramesDecoded counts the merged file's frames decoded, after it was
	// written, to build the SLOG file and the sidecar: each frame once.
	FramesDecoded int64
}

// MergeFiles is utemerge -slog, the paper's slogmerge utility: it merges
// the interval files at paths into mergedPath and builds, in the same
// job, the SLOG file at slogPath and — when pyr is non-nil — the merged
// file's summary-pyramid sidecar under the size rule
// (WritePyramidSidecar). The SLOG's first pass observes the merge
// writer's frames as they are sealed; its second pass is then the one
// decode of the merged file, and the pyramid builder is fed from it.
func MergeFiles(paths []string, mergedPath, slogPath string, pyr *interval.PyramidOptions, mopts merge.Options, sopts Options) (*MergeResult, error) {
	files := make([]*interval.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, path := range paths {
		// Merge inputs are read frame by frame; a sidecar beside one
		// would only be parsed and dropped.
		f, err := interval.Open(path, interval.WithPyramid(false))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	out, err := os.Create(mergedPath)
	if err != nil {
		return nil, err
	}
	res := &MergeResult{}
	p, mres, err := mergePlanned(files, out, mopts, sopts)
	res.Merge = mres
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}

	mf, err := interval.Open(mergedPath, interval.WithPyramid(false))
	if err != nil {
		return res, err
	}
	defer mf.Close()
	var pb *interval.PyramidBuilder
	var tap func(*interval.Batch)
	if pyr != nil {
		if pb, err = interval.NewPyramidBuilder(mf, *pyr); err != nil {
			return res, err
		}
		tap = pb.Add
	}
	fp, err := os.Create(slogPath)
	if err != nil {
		return res, err
	}
	res.Slog, err = p.Write(mf, fp, tap)
	if cerr := fp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	if pb != nil {
		if res.Sidecar, err = interval.WritePyramidSidecar(mergedPath, pb.Pyramid(), mf.Size); err != nil {
			return res, err
		}
	}
	res.FramesDecoded = mf.DecodedFrames()
	return res, nil
}
