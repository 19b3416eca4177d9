package interval

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeTempFile puts an in-memory trace on disk for the path-based API.
func writeTempFile(t *testing.T, sb *SeekBuffer) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "trace.ute")
	if err := os.WriteFile(p, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOpenMatchesNewFile pins the entry-point contract: Open (a path)
// and NewFile (a reader) see exactly the same file, and a salvage pass
// over an undamaged file recovers every frame and reports no damage.
func TestOpenMatchesNewFile(t *testing.T) {
	sb, recs := writeRandomFile(t, 11, 400, CurrentHeaderVersion)
	p := writeTempFile(t, sb)

	f1, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	all1, err := f1.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	all2, err := f2.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all1, all2) || len(all1) != len(recs) {
		t.Fatalf("Open and NewFile scans disagree (%d vs %d records)", len(all1), len(all2))
	}

	f3, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	res := f3.Salvage()
	fes, err := f1.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != len(fes) {
		t.Fatalf("Salvage recovered %d frames, the file has %d", len(res.Frames), len(fes))
	}
	if !res.Report.Clean() {
		t.Fatalf("salvage of an undamaged file reports damage: %+v", res.Report)
	}
}

// TestPayloadChecksumAlwaysVerified flips one payload byte on a v3 file
// (fixed-size record encoding, so the damage stays decodable): an opened
// file rejects the frame — no option switches the check off — and salvage
// reports the damage.
func TestPayloadChecksumAlwaysVerified(t *testing.T) {
	sb, _ := writeRandomFile(t, 12, 300, 3)
	clean := openFile(t, sb)
	frames, err := clean.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	damaged := append([]byte(nil), sb.Bytes()...)
	damaged[frames[0].Offset+2] ^= 0xff

	f, err := NewFile(NewSeekBufferFrom(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFrameBatch(frames[0]); err == nil {
		t.Fatal("open decoded a frame with a bad payload checksum")
	}
	if f.Salvage().Report.Clean() {
		t.Fatal("salvage missed the payload damage")
	}
}

// TestCloseIdempotent: Close is safe to call twice and from many
// goroutines at once, and afterwards every read path fails with
// ErrClosed rather than a nil-map panic or an os.ErrClosed leak.
func TestCloseIdempotent(t *testing.T) {
	sb, _ := writeRandomFile(t, 13, 300, CurrentHeaderVersion)
	p := writeTempFile(t, sb)
	f, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}

	if _, err := f.ReadFrame(frames[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrame after Close: %v, want ErrClosed", err)
	}
	if _, err := f.ReadFrameBatch(frames[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrameBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := f.Scan().All(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close: %v, want ErrClosed", err)
	}
}

// TestCloseMidScanIsErrClosed closes the file while a scan is in
// progress on another goroutine: the scan must end with ErrClosed, not
// a raw *os.PathError or a crash.
func TestCloseMidScanIsErrClosed(t *testing.T) {
	sb, _ := writeRandomFile(t, 14, 2000, CurrentHeaderVersion)
	p := writeTempFile(t, sb)
	f, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		s := f.Scan()
		var n int
		for {
			_, err := s.NextRecord()
			if err != nil {
				done <- err
				return
			}
			n++
			if n == 1 {
				close(started)
			}
		}
	}()
	<-started
	f.Close()
	err = <-done
	// The race is real: the scan may finish cleanly (io.EOF surfaces as
	// a nil-error stop inside All; NextRecord returns io.EOF) before the
	// close lands. Anything else must be ErrClosed.
	if !errors.Is(err, ErrClosed) && !errors.Is(err, io.EOF) {
		t.Fatalf("scan ended with %v, want ErrClosed or EOF", err)
	}
}

// TestPreloadedMetadataOps: the first metadata call makes the directory
// chain resident, so from then on metadata operations touch no I/O —
// they work on a closed file too and agree with the answers given while
// it was open. A file closed before its first metadata call has no
// chain and says so.
func TestPreloadedMetadataOps(t *testing.T) {
	sb, _ := writeRandomFile(t, 15, 900, CurrentHeaderVersion)
	f := openFile(t, sb)
	framesBefore, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	s0, e0, n0, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	framesAfter, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(framesBefore, framesAfter) {
		t.Fatal("Close changed the frame list")
	}
	s1, e1, n1, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s0 != s1 || e0 != e1 || n0 != n1 {
		t.Fatalf("Close changed Stats: [%v %v] %d vs [%v %v] %d", s0, e0, n0, s1, e1, n1)
	}
	// Window metadata from the resident chain.
	fes, err := f.FramesInWindow(s1, e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != len(framesAfter) {
		t.Fatalf("full-run window returns %d frames, file has %d", len(fes), len(framesAfter))
	}
	if _, ok, err := f.FrameContaining(s1); err != nil || !ok {
		t.Fatalf("FrameContaining(start) on the resident chain: ok=%v err=%v", ok, err)
	}
	// Frame payloads are not resident: reading one still fails cleanly.
	if _, err := f.Scan().NextRecord(); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan of a closed file: %v, want ErrClosed", err)
	}

	g := openFile(t, sb)
	g.Close()
	if _, err := g.Frames(); !errors.Is(err, ErrClosed) {
		t.Fatalf("first metadata call on a closed file: %v, want ErrClosed", err)
	}
}
