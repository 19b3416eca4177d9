package interval

import (
	"fmt"
	"io"
	"os"
)

// This file is the package's single entry point for opening interval
// data: one pair — Open for paths, NewFile for readers — configured by
// functional options.

// Option configures Open and NewFile.
type Option func(*openOptions)

type openOptions struct {
	pyramid  bool
	liveTail int64
}

func defaultOpenOptions() openOptions {
	return openOptions{pyramid: true, liveTail: -1}
}

// WithPyramid controls the summary-pyramid sidecar auto-load (the
// default is true): Open looks for <path>.pyr and, when it is no larger
// than the trace (SidecarOutweighs; checked by stat, before a byte of it
// is read), remembers it; the first summary that asks (File.Pyramid)
// reads, decodes, verifies, and matches it against the trace's
// frame-directory signature, once, so SummarizeWindow can answer from
// summary cells — and a tool that never summarizes never pays for the
// parse. The sidecar is strictly advisory — a missing, oversized,
// corrupt, truncated, or stale sidecar is silently ignored and every
// query falls back to the scan engine — so no option value can ever
// make Open fail. NewFile never auto-loads (a bare reader has no path).
func WithPyramid(v bool) Option {
	return func(o *openOptions) { o.pyramid = v }
}

// WithLiveTail opens a snapshot of a file that is still being written:
// sealedSize is a prefix length previously reported by the writer (a
// SealInfo.Size from WriterOptions.OnSeal). The reader clamps every
// bound to sealedSize, so bytes beyond it — not yet written, or a
// directory mid-flush — are invisible, and it treats a directory whose
// next link equals sealedSize as the end of the chain (the writer
// writes that link speculatively; it only becomes a real pointer once
// the next directory seals). A sealedSize that covers only the header
// yields a valid empty trace. Opening a fully Closed file with its
// final size behaves identically to a plain Open.
func WithLiveTail(sealedSize int64) Option {
	return func(o *openOptions) { o.liveTail = sealedSize }
}

// Open opens an interval file on disk. With no options it behaves
// exactly as the historical Open plus the advisory pyramid sidecar
// auto-load; see WithPyramid and WithLiveTail for the configurable
// behaviors. Frame payload checksums are always verified; reading around
// damage is File.Salvage's job.
func Open(path string, opts ...Option) (*File, error) {
	o := defaultOpenOptions()
	for _, opt := range opts {
		opt(&o)
	}
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f, err := NewFile(fp, opts...)
	if err != nil {
		fp.Close()
		return nil, err
	}
	if o.pyramid {
		// Advisory: no sidecar, or one that outweighs the trace, just
		// means queries scan. Whether it loads is Pyramid's business.
		pp := PyramidPath(path)
		if st, err := os.Stat(pp); err == nil && !SidecarOutweighs(st.Size(), f.Size) {
			f.pyrPath = pp
		}
	}
	return f, nil
}

// NewFile parses the header, thread table, and marker table from r (the
// paper's readHeader). It accepts the same options as Open. Every read
// of r is positioned (ReadAt), so the File may be shared by concurrent
// readers; Seek only measures r's size. When r implements io.Closer
// the returned File owns it and Close closes it.
func NewFile(r interface {
	io.ReaderAt
	io.Seeker
}, opts ...Option) (*File, error) {
	o := defaultOpenOptions()
	for _, opt := range opts {
		opt(&o)
	}
	f, err := readFileHeader(r, r)
	if err != nil {
		return nil, err
	}
	if o.liveTail >= 0 {
		if o.liveTail > f.Size {
			return nil, fmt.Errorf("interval: live tail %d beyond file size %d", o.liveTail, f.Size)
		}
		if o.liveTail < f.FirstDir {
			return nil, fmt.Errorf("interval: live tail %d truncates the header (tables end at %d)", o.liveTail, f.FirstDir)
		}
		f.Size = o.liveTail
		f.live = true
	}
	return f, nil
}
