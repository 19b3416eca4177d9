// Differential and fuzz harness for the in-place Reader: whatever the
// source hands over — all at once, a byte at a time, half of what was
// asked, data together with its error — the reader yields exactly the
// records a Decode loop over the same image does, ends with io.EOF only
// on a record boundary, and names the part a cut fell in.
//
// Plain `go test` executes the checked-in seeds under
// testdata/fuzz/FuzzRawReader/; regenerate them with
//
//	go test ./internal/trace -run TestRegenRawReaderCorpus -regen-corpus
package trace

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// rawImage is a raw trace header followed by the encoded records.
func rawImage(recs []Record) []byte {
	img := make([]byte, rawHeaderSize)
	copy(img, rawMagic)
	for i := range recs {
		img = recs[i].Encode(img)
	}
	return img
}

// genRecord builds a record with nargs argument words and the given
// string payload, its fields derived from i.
func genRecord(i, nargs int, str string) Record {
	r := Record{
		Type: events.Type(1 + i%200), Edge: events.Edge(i % 3),
		TID: int32(i%7 - 1), Time: clock.Time(1000*i - 5000), Str: str,
	}
	if nargs > 0 {
		r.Args = make([]uint64, nargs)
		for k := range r.Args {
			r.Args[k] = uint64(i)<<32 | uint64(k)
		}
	}
	return r
}

// bigSequence covers 0…maxArgs args crossed with empty, 1-byte and
// maximal strings; it ends in the largest record the format allows.
func bigSequence() []Record {
	var recs []Record
	for _, nargs := range []int{0, 1, 2, 7, 600, maxArgs} {
		for _, sl := range []int{0, 1, 0xffff} {
			recs = append(recs, genRecord(len(recs), nargs, strings.Repeat("s", sl)))
		}
	}
	return recs
}

// decodeLoop is the reference: Decode over the image's record bytes. It
// returns the records and each record's start offset in img, plus the
// offset the loop stopped at.
func decodeLoop(img []byte) (recs []Record, starts []int, stop int) {
	off := rawHeaderSize
	for off < len(img) {
		r, n, err := Decode(img[off:])
		if err != nil {
			break
		}
		recs, starts = append(recs, r), append(starts, off)
		off += n
	}
	return recs, starts, off
}

// sameRecord compares two records, an empty Args equal to a nil one.
func sameRecord(a, b Record) bool {
	return a.Type == b.Type && a.Edge == b.Edge && a.TID == b.TID && a.Time == b.Time &&
		slices.Equal(a.Args, b.Args) && a.Str == b.Str
}

// readInPlace drains a reader through NextInto, cloning what it keeps;
// window is the largest its window was seen to be.
func readInPlace(t *testing.T, src io.Reader) (recs []Record, window int, err error) {
	t.Helper()
	rd, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for {
		if err := rd.NextInto(&rec); err != nil {
			if rd.win != nil {
				t.Fatal("a spent reader kept its window")
			}
			return recs, window, err
		}
		window = max(window, cap(rd.win))
		cp := rec
		cp.Args = append([]uint64(nil), rec.Args...)
		recs = append(recs, cp)
	}
}

func TestReaderMatchesDecodeLoop(t *testing.T) {
	img := rawImage(bigSequence())
	want, _, stop := decodeLoop(img)
	if stop != len(img) || len(want) != len(bigSequence()) {
		t.Fatalf("reference loop stopped at %d of %d after %d records", stop, len(img), len(want))
	}
	sources := map[string]func() io.Reader{
		"bytes":   func() io.Reader { return bytes.NewReader(img) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(img)) },
		"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(img)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(img)) },
	}
	for name, src := range sources {
		got, _, err := readInPlace(t, src())
		if err != io.EOF {
			t.Fatalf("%s: ended with %v, want io.EOF", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: in-place records differ from the Decode loop's (%d vs %d)", name, len(got), len(want))
		}
		// The owning form and the header-only step see the same stream.
		rd, _ := NewReader(src())
		owned, err := rd.ReadAll()
		if err != nil || !reflect.DeepEqual(owned, want) {
			t.Fatalf("%s: ReadAll: %d records, err %v", name, len(owned), err)
		}
		rd, _ = NewReader(src())
		var rec Record
		for i := range want {
			if err := rd.NextHeader(&rec); err != nil {
				t.Fatalf("%s: header step %d: %v", name, i, err)
			}
			w := want[i]
			if !sameRecord(rec, Record{Type: w.Type, Edge: w.Edge, TID: w.TID, Time: w.Time}) {
				t.Fatalf("%s: header step %d: %+v, want the fixed fields of %+v", name, i, rec, w)
			}
			if i%2 == 0 {
				if err := rd.Payload(&rec); err != nil || !sameRecord(rec, w) {
					t.Fatalf("%s: payload of record %d differs (err %v)", name, i, err)
				}
			}
		}
		if err := rd.NextHeader(&rec); err != io.EOF {
			t.Fatalf("%s: header step past the end: %v", name, err)
		}
	}
}

// TestReaderCutAtEveryOffset truncates an image at every byte: io.EOF
// exactly on record boundaries, otherwise io.ErrUnexpectedEOF wrapped
// with the part of the record the cut fell in.
func TestReaderCutAtEveryOffset(t *testing.T) {
	recs := []Record{
		genRecord(0, 0, ""), genRecord(1, 3, ""), genRecord(2, 1, "marker"),
		genRecord(3, 0, "x"), genRecord(4, 2, ""),
	}
	img := rawImage(recs)
	_, starts, _ := decodeLoop(img)
	starts = append(starts, len(img))
	for cut := rawHeaderSize; cut <= len(img); cut++ {
		// whole records lie before the cut; unless the cut is a record
		// boundary it falls in record number whole, in one of its parts.
		whole := 0
		for whole < len(recs) && starts[whole+1] <= cut {
			whole++
		}
		var want string
		if cut != starts[whole] {
			r := recs[whole]
			body := starts[whole] + recHeaderSize + 8*len(r.Args)
			if r.Str != "" {
				body += 2
			}
			switch {
			case cut < starts[whole]+recHeaderSize:
				want = "trace: reading record header: unexpected EOF"
			case cut < body:
				want = "trace: reading record body: unexpected EOF"
			default:
				want = "trace: reading string payload: unexpected EOF"
			}
		}
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r }, iotest.OneByteReader, iotest.DataErrReader,
		} {
			got, _, err := readInPlace(t, wrap(bytes.NewReader(img[:cut])))
			if len(got) != whole || whole > 0 && !reflect.DeepEqual(got, recs[:whole]) {
				t.Fatalf("cut %d: %d whole records, want %d", cut, len(got), whole)
			}
			if want == "" {
				if err != io.EOF {
					t.Fatalf("cut %d (a record boundary): %v, want io.EOF", cut, err)
				}
				continue
			}
			if err == nil || err.Error() != want || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				t.Fatalf("cut %d: %v, want %q", cut, err, want)
			}
		}
	}
}

// TestReaderSourceErrorKeepsItsClass: an error that is not an end of
// input is reported as itself, after the records read before it.
func TestReaderSourceErrorKeepsItsClass(t *testing.T) {
	img := rawImage([]Record{genRecord(0, 2, ""), genRecord(1, 1, "")})
	boom := errors.New("boom")
	for _, c := range []struct {
		cut, whole int
		text       string
	}{
		{len(img), 2, "trace: reading record header: boom"},
		{len(img) - 3, 1, "trace: reading record body: boom"},
	} {
		src := io.MultiReader(bytes.NewReader(img[:c.cut]), iotest.ErrReader(boom))
		got, _, err := readInPlace(t, src)
		if !errors.Is(err, boom) || err.Error() != c.text || len(got) != c.whole {
			t.Fatalf("cut %d: %d records, then %v; want %d, then %q", c.cut, len(got), err, c.whole, c.text)
		}
	}
	// A source that never makes progress cannot hang the reader.
	rd, _ := NewReader(io.MultiReader(bytes.NewReader(img[:rawHeaderSize]), stuck{}))
	if _, err := rd.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stuck source: %v", err)
	}
}

type stuck struct{}

func (stuck) Read([]byte) (int, error) { return 0, nil }

// TestReaderWindowGrowsOnce: the window is allocated at the first
// record, never for a reader opened for its header alone, and a record
// larger than it — the format's largest — grows it exactly once.
func TestReaderWindowGrowsOnce(t *testing.T) {
	big := genRecord(1, maxArgs, strings.Repeat("z", 0xffff))
	img := rawImage([]Record{genRecord(0, 1, ""), big, genRecord(2, 1, ""), big})
	rd, err := NewReader(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if rd.win != nil {
		t.Fatal("window allocated before the first record")
	}
	var rec Record
	var caps []int
	for {
		if err := rd.NextInto(&rec); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		if n := len(caps); n == 0 || caps[n-1] != cap(rd.win) {
			caps = append(caps, cap(rd.win))
		}
	}
	if want := []int{readWindow, big.EncodedSize()}; !reflect.DeepEqual(caps, want) {
		t.Fatalf("window capacities %v, want %v", caps, want)
	}
}

func TestDecodeIntoReusesArgs(t *testing.T) {
	img := rawImage([]Record{genRecord(0, 6, ""), genRecord(1, 2, "s"), genRecord(2, 0, "")})[rawHeaderSize:]
	var rec Record
	n, err := DecodeInto(&rec, img)
	if err != nil || len(rec.Args) != 6 {
		t.Fatalf("first record: %v, %d args", err, len(rec.Args))
	}
	first := &rec.Args[0]
	m, err := DecodeInto(&rec, img[n:])
	if err != nil || len(rec.Args) != 2 || &rec.Args[0] != first || rec.Str != "s" {
		t.Fatalf("second record did not reuse the args: %v %+v", err, rec)
	}
	if _, err := DecodeInto(&rec, img[n+m:]); err != nil || len(rec.Args) != 0 || rec.Str != "" {
		t.Fatalf("third record keeps stale payload: %v %+v", err, rec)
	}
	if avg := testing.AllocsPerRun(100, func() { DecodeInto(&rec, img) }); avg != 0 {
		t.Fatalf("DecodeInto allocates %.1f objects for a string-less record", avg)
	}
	// Decode owns what it returns.
	r, _, _ := Decode(img)
	rec.Args = rec.Args[:6]
	rec.Args[0]++
	if r.Args[0] == rec.Args[0] {
		t.Fatal("Decode's Args alias the caller's record")
	}
	for cut := 0; cut < n; cut++ {
		if _, _, err := Decode(img[:cut]); err == nil {
			t.Fatalf("Decode accepted a record cut at %d of %d bytes", cut, n)
		}
		if want, _ := RecordSize(img[:cut]); want <= cut || want > n {
			t.Fatalf("RecordSize at %d of %d bytes = %d", cut, n, want)
		}
	}
	if size, _ := RecordSize(img); size != n {
		t.Fatalf("RecordSize of a whole record = %d, want %d", size, n)
	}
}

// FuzzRawReader: for arbitrary bytes after a valid header the reader
// and the Decode loop agree on the records and on where they stop, the
// reader never panics, and its window never outgrows the input by more
// than one window.
func FuzzRawReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(rawImage([]Record{genRecord(0, 2, ""), genRecord(1, 1, "m")})[rawHeaderSize:])
	f.Fuzz(func(t *testing.T, data []byte) {
		img := append(rawImage(nil), data...)
		want, _, stop := decodeLoop(img)
		sources := []io.Reader{bytes.NewReader(img)}
		if len(img) <= 4096 {
			sources = append(sources, iotest.OneByteReader(bytes.NewReader(img)))
		}
		for _, src := range sources {
			got, window, err := readInPlace(t, src)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("reader yields %d records, the Decode loop %d", len(got), len(want))
			}
			if (err == io.EOF) != (stop == len(img)) {
				t.Fatalf("reader ended with %v; the Decode loop stopped at %d of %d", err, stop, len(img))
			}
			if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut record reported as %v", err)
			}
			if window > len(data)+readWindow {
				t.Fatalf("window of %d bytes for %d input bytes", window, len(data))
			}
		}
	})
}

var regenCorpus = flag.Bool("regen-corpus", false, "regenerate the checked-in fuzz seed corpus")

var corpusDir = filepath.Join("testdata", "fuzz", "FuzzRawReader")

// TestRegenRawReaderCorpus writes a few real record streams, whole and
// torn, as fuzz seeds.
func TestRegenRawReaderCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("pass -regen-corpus to regenerate the seed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mixed := rawImage([]Record{
		genRecord(0, 0, ""), genRecord(1, 4, ""), genRecord(2, 1, "phase"),
		genRecord(3, 0, "x"), genRecord(4, 40, ""),
	})[rawHeaderSize:]
	write("mixed", mixed)
	write("mixed-torn-header", mixed[:len(mixed)-330])
	write("mixed-torn-body", mixed[:len(mixed)-9])
	write("string-torn", mixed[:recHeaderSize+recHeaderSize+8*4+recHeaderSize+8+2+3])
	write("claims-max-record", []byte{0xff, 0x8f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
}
