package interval

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sealSnap is one OnSeal notification plus a copy of the file bytes at
// that moment — exactly what a reader racing the writer could observe.
type sealSnap struct {
	info  SealInfo
	bytes []byte
}

// writeWithSeals writes n records through small frames/directories and
// captures a byte snapshot at every seal.
func writeWithSeals(t *testing.T, n int, opts WriterOptions) ([]sealSnap, []Record, *SeekBuffer) {
	t.Helper()
	sb := NewSeekBuffer()
	var snaps []sealSnap
	opts.OnSeal = func(si SealInfo) {
		snaps = append(snaps, sealSnap{info: si, bytes: append([]byte(nil), sb.Bytes()...)})
	}
	w, err := NewWriter(sb, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for i := 0; i < n; i++ {
		r := mkRecord(i)
		all = append(all, r)
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return snaps, all, sb
}

// TestSealPrefixAlwaysValid is the core always-valid-prefix property:
// at every seal point, the snapshot opens cleanly with WithLiveTail and
// exposes exactly the sealed frames, whose records are an exact prefix
// of the final record sequence.
func TestSealPrefixAlwaysValid(t *testing.T) {
	snaps, all, _ := writeWithSeals(t, 400, WriterOptions{FrameBytes: 512, FramesPerDir: 3})
	if len(snaps) < 3 {
		t.Fatalf("want several seals, got %d", len(snaps))
	}
	prevFrames := -1
	for i, sn := range snaps {
		if int64(len(sn.bytes)) != sn.info.Size {
			t.Fatalf("seal %d: snapshot %d bytes but SealInfo.Size %d", i, len(sn.bytes), sn.info.Size)
		}
		if sn.info.Frames <= prevFrames && !sn.info.Final {
			t.Fatalf("seal %d: frames did not grow (%d -> %d)", i, prevFrames, sn.info.Frames)
		}
		prevFrames = sn.info.Frames

		// The live file may have grown past the seal (a next directory
		// mid-flush): garbage beyond the sealed size must be invisible.
		grown := append(append([]byte(nil), sn.bytes...), 0xde, 0xad, 0xbe, 0xef)
		f, err := NewFile(NewSeekBufferFrom(grown), WithLiveTail(sn.info.Size))
		if err != nil {
			t.Fatalf("seal %d: open live tail: %v", i, err)
		}
		frames, err := f.Frames()
		if err != nil {
			t.Fatalf("seal %d: frames: %v", i, err)
		}
		if len(frames) != sn.info.Frames {
			t.Fatalf("seal %d: %d frames visible, SealInfo says %d", i, len(frames), sn.info.Frames)
		}
		recs, err := f.Scan().All()
		if err != nil {
			t.Fatalf("seal %d: scan: %v", i, err)
		}
		if len(recs) > len(all) {
			t.Fatalf("seal %d: %d records from %d written", i, len(recs), len(all))
		}
		for j := range recs {
			if !reflect.DeepEqual(normalize(recs[j]), normalize(all[j])) {
				t.Fatalf("seal %d: record %d differs:\n got %+v\nwant %+v", i, j, recs[j], all[j])
			}
		}
		if sn.info.Final && len(recs) != len(all) {
			t.Fatalf("final seal: %d records, want all %d", len(recs), len(all))
		}
		first, last, n, err := f.Stats()
		if err != nil {
			t.Fatalf("seal %d: stats: %v", i, err)
		}
		if n != int64(len(recs)) {
			t.Fatalf("seal %d: stats records %d, scan %d", i, n, len(recs))
		}
		if n > 0 && (first != recs[0].Start || last < recs[len(recs)-1].End()) {
			t.Fatalf("seal %d: stats bounds [%d,%d] inconsistent", i, first, last)
		}
		if sn.info.End != last && n > 0 {
			t.Fatalf("seal %d: SealInfo.End %d, stats last %d", i, sn.info.End, last)
		}
		f.Close()
	}
	if !snaps[len(snaps)-1].info.Final {
		t.Fatal("last seal not marked Final")
	}
}

// TestLiveTailPreload proves the registry path: a live snapshot whose
// chain is resident (any first metadata call loads it) answers window
// queries from memory, matching a full scan.
func TestLiveTailPreload(t *testing.T) {
	snaps, all, _ := writeWithSeals(t, 300, WriterOptions{FrameBytes: 512, FramesPerDir: 2})
	sn := snaps[len(snaps)/2]
	f, err := NewFile(NewSeekBufferFrom(sn.bytes), WithLiveTail(sn.info.Size))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Dirs(); err != nil {
		t.Fatalf("loading the live tail's chain: %v", err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= len(all) {
		t.Fatalf("mid-flight snapshot saw %d of %d records", len(recs), len(all))
	}
	lo, hi := recs[0].Start, recs[len(recs)-1].End()
	mid := lo + (hi-lo)/2
	fes, err := f.FramesInWindow(mid, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) == 0 {
		t.Fatal("no frames in upper half window")
	}
	got, err := f.ScanWindow(mid, hi).All()
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range recs {
		if r.End() >= mid && r.Start <= hi {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("window scan on live tail: %d records, want %d", len(got), want)
	}
}

// TestLiveTailHeaderOnly covers a snapshot taken before the first seal:
// only the header exists, and the trace reads as valid and empty.
func TestLiveTailHeaderOnly(t *testing.T) {
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sealed := w.SealedSize()
	if sealed != int64(sb.Len()) {
		t.Fatalf("header-only SealedSize %d, buffer %d", sealed, sb.Len())
	}
	f, err := NewFile(NewSeekBufferFrom(append([]byte(nil), sb.Bytes()...)), WithLiveTail(sealed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if dirs, err := f.Dirs(); err != nil || len(dirs) != 1 || len(dirs[0].Entries) != 0 {
		t.Fatalf("header-only snapshot: dirs %v, err %v; want one empty directory", dirs, err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("header-only snapshot returned %d records", len(recs))
	}
	_, _, n, err := f.Stats()
	if err != nil || n != 0 {
		t.Fatalf("stats on empty live tail: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveTailFinalEqualsPlainOpen: once Closed, a live-tail open at
// the final size behaves exactly like a plain open.
func TestLiveTailFinalEqualsPlainOpen(t *testing.T) {
	_, _, sb := writeWithSeals(t, 150, WriterOptions{FrameBytes: 1024, FramesPerDir: 4})
	plain, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	live, err := NewFile(NewSeekBufferFrom(sb.Bytes()), WithLiveTail(int64(sb.Len())))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	a, err := plain.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("live-tail open at final size differs from plain open")
	}
}

// TestLiveTailBounds rejects sealed sizes the file cannot satisfy.
func TestLiveTailBounds(t *testing.T) {
	sb := writeTestFile(t, 20, WriterOptions{})
	if _, err := NewFile(NewSeekBufferFrom(sb.Bytes()), WithLiveTail(int64(sb.Len())+1)); err == nil {
		t.Fatal("live tail beyond file size accepted")
	}
	if _, err := NewFile(NewSeekBufferFrom(sb.Bytes()), WithLiveTail(10)); err == nil {
		t.Fatal("live tail inside the header accepted")
	}
}

// TestSealPrefixSalvage: a crash that truncates the file exactly at a
// seal point must let the salvage reader recover every sealed frame —
// the sealed prefix is a self-consistent file minus the final link
// patch.
func TestSealPrefixSalvage(t *testing.T) {
	snaps, all, _ := writeWithSeals(t, 400, WriterOptions{FrameBytes: 512, FramesPerDir: 3})
	dir := t.TempDir()
	for i, sn := range snaps {
		if sn.info.Final {
			continue
		}
		path := filepath.Join(dir, "crash.ute")
		if err := os.WriteFile(path, sn.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path)
		if err != nil {
			t.Fatalf("seal %d: salvage open: %v", i, err)
		}
		res := f.Salvage()
		if len(res.Frames) != sn.info.Frames {
			t.Fatalf("seal %d: salvage recovered %d frames, sealed %d", i, len(res.Frames), sn.info.Frames)
		}
		var recovered []Record
		for _, fe := range res.Frames {
			recs, err := f.FrameRecords(fe)
			if err != nil {
				t.Fatalf("seal %d: decode salvaged frame: %v", i, err)
			}
			recovered = append(recovered, recs...)
		}
		for j := range recovered {
			if !reflect.DeepEqual(normalize(recovered[j]), normalize(all[j])) {
				t.Fatalf("seal %d: salvaged record %d differs", i, j)
			}
		}
		f.Close()
	}
}
