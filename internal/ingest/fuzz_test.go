// Fuzz target for the ingest wire format: arbitrary bytes posted as a
// node's preamble and record batches must never panic or hang any layer
// of the pipeline — preamble scan, incremental record decode, streaming
// conversion, live merge — and whatever the pipeline accepts must
// produce a valid interval file. The decoder must also be chunking-
// invariant: splitting the same byte stream differently can never
// change the decoded records.
//
// Plain `go test` executes every checked-in seed under
// testdata/fuzz/FuzzIngestBatch/ as a unit test; `go test -fuzz
// FuzzIngestBatch` mutates from there. Regenerate the corpus with
//
//	go test ./internal/ingest -run TestRegenIngestFuzzCorpus -regen-corpus
package ingest_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tracefw/internal/convert"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/trace"
)

// fuzzBatchCap bounds mutated inputs; real preamble+stream seeds are a
// few KB, and every structure is proportional to input size.
const fuzzBatchCap = 256 << 10

// decodeChunked runs the incremental batch decoder over the stream cut
// into the given chunks, returning the decoded records and whether the
// stream was rejected (mid-feed or at Finish).
func decodeChunked(data []byte, cuts ...int) ([]trace.Record, bool) {
	var dec convert.BatchDecoder
	var recs []trace.Record
	sink := func(r *trace.Record) error {
		cp := *r
		cp.Args = append([]uint64(nil), r.Args...)
		recs = append(recs, cp)
		return nil
	}
	prev := 0
	for _, c := range append(cuts, len(data)) {
		if c < prev || c > len(data) {
			continue
		}
		if err := dec.Feed(data[prev:c], sink); err != nil {
			return recs, true
		}
		prev = c
	}
	return recs, dec.Finish() != nil
}

// ingestOne drives a full single-node session over the wire bytes:
// data[:cut] as the preamble batch, data[cut:] as the final record
// batch. Returns the session error and the produced file bytes.
func ingestOne(t *testing.T, dir string, data []byte, cut int) (error, []byte) {
	t.Helper()
	sink := &appendSink{}
	m, err := ingest.NewManager(ingest.Config{
		Dir:           dir,
		MaxBatchBytes: fuzzBatchCap + 1,
		QueueRecords:  64,
		GateRecords:   1 << 14,
		Writer:        interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2},
		Create:        func(string) (ingest.SinkFile, error) { return sink, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Begin("fuzz", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Batch(0, 0, false, data[:cut]); err != nil {
		// A sequencer rejection does not poison the session; make sure
		// Wait cannot block on a forever-gathering state.
		sess.Abort()
	} else if err := sess.Batch(0, 1, true, data[cut:]); err != nil {
		sess.Abort()
	}
	werr := sess.Wait()
	return werr, sink.final()
}

// FuzzIngestBatch: the wire format survives arbitrary inputs at every
// layer, decoding is chunking-invariant, and accepted inputs yield
// valid interval files.
func FuzzIngestBatch(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("not a trace"), uint16(4))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, cut16 uint16) {
		if len(data) > fuzzBatchCap {
			return
		}
		// Preamble scan never panics.
		_, _ = convert.ScanPreamble(data)

		// Chunking invariance: the record stream after the raw header,
		// decoded whole and decoded split at the fuzzed cut, must agree
		// exactly — same records, same accept/reject verdict.
		if len(data) > convert.RawHeaderSize {
			body := data[convert.RawHeaderSize:]
			c := int(cut16) % (len(body) + 1)
			whole, wBad := decodeChunked(body)
			split, sBad := decodeChunked(body, c)
			if wBad != sBad {
				t.Fatalf("chunking changed the verdict: whole bad=%v, split@%d bad=%v", wBad, c, sBad)
			}
			if !wBad && !reflect.DeepEqual(whole, split) {
				t.Fatalf("chunking changed the decode: %d vs %d records", len(whole), len(split))
			}
		}

		// Full pipeline: never panics, and an accepted stream writes a
		// file that opens and validates.
		cut := int(cut16) % (len(data) + 1)
		werr, out := ingestOne(t, dir, data, cut)
		if werr == nil {
			fl, err := interval.NewFile(interval.NewSeekBufferFrom(out))
			if err != nil {
				t.Fatalf("accepted ingest produced an unopenable file: %v", err)
			}
			if _, err := fl.Validate(nil); err != nil {
				t.Fatalf("accepted ingest produced an invalid file: %v", err)
			}
		}
	})
}

// --- seed corpus -----------------------------------------------------

var regenCorpus = flag.Bool("regen-corpus", false, "regenerate the checked-in fuzz seed corpus")

// corpusDir is the checked-in seed location for FuzzIngestBatch.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzIngestBatch")

// TestRegenIngestFuzzCorpus writes real per-node raw streams (plus
// deliberately torn variants) as fuzz seeds, cut at their true preamble
// boundary so mutation starts from the accepting path.
func TestRegenIngestFuzzCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("pass -regen-corpus to regenerate the seed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte, cut int) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nuint16(%d)\n", strconv.Quote(string(data)), cut)
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Single-node sessions ingest node-0 streams; draw them from two
	// different workloads for variety.
	raws := [][]byte{genRaws(t, 5, 2, 12)[0], genRaws(t, 6, 2, 10)[0]}
	for i, raw := range raws {
		cut := preambleCut(t, raw)
		write(fmt.Sprintf("node0-%c", 'a'+i), raw, cut)
		// Torn stream: the same bytes cut mid-record.
		if len(raw) > cut+9 {
			write(fmt.Sprintf("node0-%c-torn", 'a'+i), raw[:len(raw)-5], cut)
		}
	}
	// Header-only and preamble-only degenerate streams.
	write("header-only", raws[0][:convert.RawHeaderSize], convert.RawHeaderSize)
	write("preamble-only", raws[0][:preambleCut(t, raws[0])], preambleCut(t, raws[0]))
}

// TestIngestFuzzCorpusSeedsValid guards the checked-in corpus against
// rot: every seed must still parse, and the full-stream seeds must
// still drive a complete, validating ingest.
func TestIngestFuzzCorpusSeedsValid(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("seed corpus missing (run -regen-corpus): %v", err)
	}
	full := 0
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, cut := decodeIngestSeed(t, e.Name(), string(body))
		if strings.HasPrefix(e.Name(), "node") && !strings.Contains(e.Name(), "torn") {
			if _, err := convert.ScanPreamble(data[:cut]); err != nil {
				t.Fatalf("seed %s: preamble no longer scans: %v", e.Name(), err)
			}
			werr, out := ingestOne(t, t.TempDir(), data, cut)
			if werr != nil {
				t.Fatalf("seed %s no longer ingests: %v", e.Name(), werr)
			}
			fl, err := interval.NewFile(interval.NewSeekBufferFrom(out))
			if err != nil {
				t.Fatalf("seed %s: output does not open: %v", e.Name(), err)
			}
			if _, err := fl.Validate(nil); err != nil {
				t.Fatalf("seed %s: output no longer validates: %v", e.Name(), err)
			}
			full++
		}
	}
	if full < 2 {
		t.Fatalf("corpus has %d full-stream seeds, want >= 2 (rot?)", full)
	}
}

// decodeIngestSeed parses one `go test fuzz v1` seed with a []byte and
// a uint16 value.
func decodeIngestSeed(t *testing.T, name, body string) ([]byte, int) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a 2-value corpus file (%d lines)", name, len(lines))
	}
	const pre, post = "[]byte(", ")"
	bl := lines[1]
	if !strings.HasPrefix(bl, pre) || !strings.HasSuffix(bl, post) {
		t.Fatalf("%s: bad []byte line", name)
	}
	s, err := strconv.Unquote(bl[len(pre) : len(bl)-len(post)])
	if err != nil {
		t.Fatalf("%s: bad quoted literal: %v", name, err)
	}
	cl := lines[2]
	if !strings.HasPrefix(cl, "uint16(") || !strings.HasSuffix(cl, ")") {
		t.Fatalf("%s: bad uint16 line", name)
	}
	cut, err := strconv.Atoi(cl[len("uint16(") : len(cl)-1])
	if err != nil {
		t.Fatalf("%s: bad cut: %v", name, err)
	}
	return []byte(s), cut
}
