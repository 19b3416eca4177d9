package ingest_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/xrand"
)

// The crash-mid-ingest differential harness. A live ingest writes
// through a recording sink that captures the exact byte stream the
// merge writer produces, write by write. Because the writer's steady
// state is strictly append-only (the always-valid-prefix property —
// asserted here, not assumed), the on-disk image of a process killed at
// ANY byte horizon H is exactly stream[:H]. The harness therefore
// replays one real ingest and then "crashes" it at hundreds of seeded
// kill-points covering every writer stage: inside the file header,
// inside a directory header, inside an entry table, at and around every
// frame payload boundary, and exactly at every seal point.
//
// For every crash image the differential properties are:
//
//  1. salvage never panics, recovers every frame sealed at or below the
//     horizon, and emits nothing absent from the batch-pipeline
//     reference (bit-exact payloads, identical records);
//  2. the newest seal at or below the horizon opens via
//     interval.Open/NewFile + WithLiveTail and scans to an exact record
//     prefix of the reference;
//  3. window queries over the recovered prefix equal the same queries
//     against the reference file restricted to the same seal.

// appendSink is the recording SinkFile: it captures the written bytes
// and proves the append-only contract. Any write that lands below the
// current end of file is a rewrite; the only one the interval writer is
// allowed is Close's final-link patch, after the file has reached its
// final size. stream() returns the pure-append byte stream (the file as
// it existed before the first rewrite), which is what a crash at any
// pre-Close moment would leave on disk.
type appendSink struct {
	mu       sync.Mutex
	buf      []byte
	pos      int64
	prePatch []byte // snapshot taken just before the first rewrite
	rewrites []rewrite
}

type rewrite struct {
	off, n int64
	fileAt int64 // file length at the moment of the rewrite
}

func (a *appendSink) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pos < int64(len(a.buf)) {
		if a.prePatch == nil {
			a.prePatch = append([]byte(nil), a.buf...)
		}
		a.rewrites = append(a.rewrites, rewrite{off: a.pos, n: int64(len(p)), fileAt: int64(len(a.buf))})
	}
	end := a.pos + int64(len(p))
	if end > int64(len(a.buf)) {
		a.buf = append(a.buf, make([]byte, end-int64(len(a.buf)))...)
	}
	copy(a.buf[a.pos:end], p)
	a.pos = end
	return len(p), nil
}

func (a *appendSink) Seek(offset int64, whence int) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch whence {
	case io.SeekStart:
		a.pos = offset
	case io.SeekCurrent:
		a.pos += offset
	case io.SeekEnd:
		a.pos = int64(len(a.buf)) + offset
	default:
		return 0, fmt.Errorf("bad whence %d", whence)
	}
	return a.pos, nil
}

func (a *appendSink) Sync() error  { return nil }
func (a *appendSink) Close() error { return nil }

// stream returns the pure-append byte stream: every crash image is a
// prefix of it.
func (a *appendSink) stream() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.prePatch != nil {
		return a.prePatch
	}
	return append([]byte(nil), a.buf...)
}

func (a *appendSink) final() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.buf...)
}

// refOracle is the batch-pipeline ground truth a crash image is judged
// against.
type refOracle struct {
	bytes   []byte
	frames  []interval.FrameEntry
	recs    [][]interval.Record // per frame, directory order
	cum     []int               // cum[i] = records in frames[:i]
	allRecs []interval.Record
	file    *interval.File
}

func buildOracle(t *testing.T, refBytes []byte) *refOracle {
	t.Helper()
	o := &refOracle{bytes: refBytes}
	f, err := interval.NewFile(interval.NewSeekBufferFrom(refBytes), interval.WithPyramid(false))
	if err != nil {
		t.Fatal(err)
	}
	o.file = f
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	o.cum = append(o.cum, 0)
	for _, d := range dirs {
		for _, fe := range d.Entries {
			rs, err := f.FrameRecords(fe)
			if err != nil {
				t.Fatal(err)
			}
			o.frames = append(o.frames, fe)
			o.recs = append(o.recs, rs)
			o.cum = append(o.cum, o.cum[len(o.cum)-1]+len(rs))
			o.allRecs = append(o.allRecs, rs...)
		}
	}
	return o
}

// checkCrash verifies one crash image (stream[:horizon]) against the
// oracle. seal is the newest seal at or below the horizon (nil if the
// crash predates the first seal).
func checkCrash(t *testing.T, o *refOracle, img []byte, seal *interval.SealInfo, label string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panicked: %v", label, r)
		}
	}()
	f, err := interval.NewFile(interval.NewSeekBufferFrom(img))
	if err != nil {
		if seal != nil {
			t.Fatalf("%s: header unreadable despite a seal at %d: %v", label, seal.Size, err)
		}
		return // crashed inside the file header: nothing was promised
	}

	// Salvage soundness: nothing invented, recovered frames bit-exact.
	sv := f.Salvage()
	byOffset := map[int64]int{}
	for i, fe := range o.frames {
		byOffset[fe.Offset] = i
	}
	recovered := map[int64]bool{}
	for _, fe := range sv.Frames {
		i, ok := byOffset[fe.Offset]
		if !ok || o.frames[i] != fe {
			t.Fatalf("%s: salvage invented frame %+v", label, fe)
		}
		recovered[fe.Offset] = true
		if fe.Offset+int64(fe.Bytes) > int64(len(img)) {
			t.Fatalf("%s: salvage recovered frame past the crash horizon", label)
		}
		if !bytes.Equal(img[fe.Offset:fe.Offset+int64(fe.Bytes)], o.bytes[fe.Offset:fe.Offset+int64(fe.Bytes)]) {
			t.Fatalf("%s: frame at %d not bit-exact vs the batch reference", label, fe.Offset)
		}
		rs, err := f.FrameRecords(fe)
		if err != nil {
			t.Fatalf("%s: recovered frame at %d unreadable: %v", label, fe.Offset, err)
		}
		if !reflect.DeepEqual(rs, o.recs[i]) {
			t.Fatalf("%s: frame at %d: records differ from reference", label, fe.Offset)
		}
	}
	if seal == nil {
		return
	}
	// Salvage completeness: every frame sealed at or below the horizon
	// lives in a complete directory below it and must be recovered.
	for i := 0; i < seal.Frames; i++ {
		if !recovered[o.frames[i].Offset] {
			t.Fatalf("%s: sealed frame %d at %d not salvaged (report %+v)", label, i, o.frames[i].Offset, sv.Report)
		}
	}

	// The live-tail open of the sealed prefix scans to an exact record
	// prefix of the reference.
	lf, err := interval.NewFile(interval.NewSeekBufferFrom(img),
		interval.WithLiveTail(seal.Size), interval.WithPyramid(false))
	if err != nil {
		t.Fatalf("%s: sealed prefix of %d bytes does not open: %v", label, seal.Size, err)
	}
	got, err := lf.Scan().All()
	if err != nil {
		t.Fatalf("%s: scanning sealed prefix: %v", label, err)
	}
	want := o.allRecs[:o.cum[seal.Frames]]
	if len(got) != len(want) {
		t.Fatalf("%s: sealed prefix scans %d records, want %d", label, len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sealed prefix records differ from reference prefix", label)
	}

	// Differential window query: the crash image and the pristine
	// reference, both restricted to the same seal, must answer
	// identically.
	if len(want) > 0 {
		rf, err := interval.NewFile(interval.NewSeekBufferFrom(o.bytes),
			interval.WithLiveTail(seal.Size), interval.WithPyramid(false))
		if err != nil {
			t.Fatal(err)
		}
		lo := want[0].Start
		hi := want[len(want)-1].End()
		mid := lo + (hi-lo)/2
		for _, w := range [][2]clock.Time{{lo, mid}, {mid, hi}} {
			a, err := lf.ScanWindow(w[0], w[1]).All()
			if err != nil {
				t.Fatalf("%s: window scan on crash image: %v", label, err)
			}
			b, err := rf.ScanWindow(w[0], w[1]).All()
			if err != nil {
				t.Fatalf("%s: window scan on reference: %v", label, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: window [%d,%d] differs between crash image and reference", label, w[0], w[1])
			}
		}
	}
}

// TestIngestCrashDifferential is the harness entry point: ≥ 200 seeded
// kill-points over one real streamed ingest.
func TestIngestCrashDifferential(t *testing.T) {
	const nodes = 3
	raws := genRaws(t, 99, nodes, 70)
	wopts := interval.WriterOptions{FrameBytes: 512, FramesPerDir: 2}
	refBytes := referenceMerge(t, raws, wopts)
	o := buildOracle(t, refBytes)

	// One real ingest through the recording sink, capturing every seal.
	sink := &appendSink{}
	var sealMu sync.Mutex
	var seals []interval.SealInfo
	m, err := ingest.NewManager(ingest.Config{
		Dir: t.TempDir(),
		Writer: interval.WriterOptions{
			FrameBytes:   wopts.FrameBytes,
			FramesPerDir: wopts.FramesPerDir,
			OnSeal: func(si interval.SealInfo) {
				sealMu.Lock()
				seals = append(seals, si)
				sealMu.Unlock()
			},
		},
		QueueRecords: 128,
		Create:       func(string) (ingest.SinkFile, error) { return sink, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Begin("crash", nodes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feedNode(t, sess, i, splitBatches(t, xrand.New(7000+uint64(i)), raws[i]), xrand.New(8000+uint64(i)))
		}(i)
	}
	wg.Wait()
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}

	// The finished ingest is byte-identical to the batch pipeline, and
	// the writer held the append-only contract: the only rewrite ever
	// allowed is Close's final-link patch, after the last append.
	final := sink.final()
	if !bytes.Equal(final, refBytes) {
		t.Fatalf("ingested file differs from batch pipeline (%d vs %d bytes)", len(final), len(refBytes))
	}
	for _, rw := range sink.rewrites {
		if rw.fileAt != int64(len(final)) {
			t.Fatalf("writer rewrote [%d,+%d) while the file was still growing (%d of %d bytes): "+
				"a crash there would not be a pure prefix", rw.off, rw.n, rw.fileAt, len(final))
		}
	}
	if len(sink.rewrites) > 1 {
		t.Fatalf("writer performed %d rewrites; only Close's final-link patch is allowed", len(sink.rewrites))
	}
	stream := sink.stream()
	if int64(len(stream)) != int64(len(final)) {
		t.Fatalf("append stream is %d bytes, final file %d", len(stream), len(final))
	}
	if len(seals) == 0 || !seals[len(seals)-1].Final {
		t.Fatalf("seal log broken: %d seals", len(seals))
	}
	if got := seals[len(seals)-1]; got.Size != int64(len(final)) || got.Frames != len(o.frames) {
		t.Fatalf("final seal %+v does not cover the file (%d bytes, %d frames)", got, len(final), len(o.frames))
	}

	// Kill-points: every writer stage boundary, ±1 around it, every seal
	// point, plus seeded random horizons.
	horizons := map[int64]bool{}
	add := func(h int64) {
		if h >= 1 && h <= int64(len(stream)) {
			horizons[h] = true
		}
	}
	dirs, err := o.file.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		add(d.Offset - 1) // mid final frame of the previous group
		add(d.Offset)     // group flushed, directory not yet
		add(d.Offset + 3) // torn directory header
		if len(d.Entries) > 0 {
			dirSize := d.Entries[0].Offset - d.Offset
			add(d.Offset + dirSize/2) // torn entry table
			add(d.Offset + dirSize)   // entries down, frames missing
		}
	}
	for _, fe := range o.frames {
		add(fe.Offset + 1)                   // first payload byte
		add(fe.Offset + int64(fe.Bytes)/2)   // torn payload
		add(fe.Offset + int64(fe.Bytes) - 1) // one byte short
		add(fe.Offset + int64(fe.Bytes))     // frame complete
	}
	for _, si := range seals {
		add(si.Size - 1)
		add(si.Size)
		add(si.Size + 1)
	}
	rng := xrand.New(424242)
	for len(horizons) < 220 {
		add(1 + rng.Int63n(int64(len(stream))))
	}
	// Every stage of every frame/directory yields thousands of
	// kill-points on a trace this size; subsample deterministically to
	// keep the suite fast, but always keep the seal-point kills.
	if len(horizons) > 500 {
		sorted := make([]int64, 0, len(horizons))
		for h := range horizons {
			sorted = append(sorted, h)
		}
		slices.Sort(sorted)
		stride := len(sorted)/450 + 1
		keep := map[int64]bool{}
		for i, h := range sorted {
			if i%stride == 0 {
				keep[h] = true
			}
		}
		for _, si := range seals {
			for _, h := range []int64{si.Size - 1, si.Size, si.Size + 1} {
				if horizons[h] {
					keep[h] = true
				}
			}
		}
		horizons = keep
	}
	if len(horizons) < 200 {
		t.Fatalf("only %d crash scenarios, need >= 200", len(horizons))
	}
	t.Logf("%d crash scenarios over a %d-byte stream, %d seals, %d frames",
		len(horizons), len(stream), len(seals), len(o.frames))

	sealAt := func(h int64) *interval.SealInfo {
		var best *interval.SealInfo
		for i := range seals {
			if seals[i].Size <= h && (best == nil || seals[i].Size > best.Size) {
				best = &seals[i]
			}
		}
		return best
	}
	n := 0
	for h := range horizons {
		img := stream[:h]
		checkCrash(t, o, img, sealAt(h), fmt.Sprintf("horizon %d", h))
		// Every 16th scenario also goes through the on-disk salvage API.
		if n++; n%16 == 0 {
			p := filepath.Join(t.TempDir(), "crash.ute")
			if err := os.WriteFile(p, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if sf, err := interval.Open(p); err != nil {
				if sealAt(h) != nil {
					t.Fatalf("horizon %d: salvage open failed despite sealed data: %v", h, err)
				}
			} else {
				sv := sf.Salvage()
				sf.Close()
				for _, fe := range sv.Frames {
					i, ok := byOffsetIndex(o, fe.Offset)
					if !ok || o.frames[i] != fe {
						t.Fatalf("horizon %d: salvage open invented frame %+v", h, fe)
					}
				}
			}
		}
	}

	// The very first crash image that carries a seal must already be
	// servable through merge's live machinery too: sanity-check the
	// smallest seal explicitly.
	if first := seals[0]; first.Size > 0 {
		img := stream[:first.Size]
		lf, err := interval.NewFile(interval.NewSeekBufferFrom(img),
			interval.WithLiveTail(first.Size), interval.WithPyramid(false))
		if err != nil {
			t.Fatal(err)
		}
		got, err := lf.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != o.cum[first.Frames] {
			t.Fatalf("first seal scans %d records, want %d", len(got), o.cum[first.Frames])
		}
	}
}

func byOffsetIndex(o *refOracle, off int64) (int, bool) {
	for i, fe := range o.frames {
		if fe.Offset == off {
			return i, true
		}
	}
	return 0, false
}
