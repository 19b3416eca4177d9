package interval

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/clock"
)

// ChainDamages are the defects a directory's next link (header offset
// 16, outside the v3 metadata checksum) can carry. Each takes a pristine
// multi-directory file and returns a damaged copy. They are exported to
// the external test package, whose -regen-corpus path checks the first
// three in as fuzz seeds.
var ChainDamages = []struct {
	Name  string
	Apply func(t testing.TB, pristine []byte) []byte
}{
	{"first-self", func(t testing.TB, b []byte) []byte {
		dirs, _ := chainOf(t, b)
		return relink(b, dirs[0].Offset, dirs[0].Offset)
	}},
	{"last-to-first", func(t testing.TB, b []byte) []byte {
		dirs, _ := chainOf(t, b)
		return relink(b, dirs[len(dirs)-1].Offset, dirs[0].Offset)
	}},
	// The writer never leaves an empty directory behind a full one, but
	// the format allows it: append one whose next link is itself.
	{"empty-self", func(t testing.TB, b []byte) []byte {
		dirs, ver := chainOf(t, b)
		last, at := dirs[len(dirs)-1].Offset, int64(len(b))
		return append(relink(b, last, at), appendDir(nil, ver, last, at, nil)...)
	}},
	// One byte into a frame, where every version reads an impossible
	// entry count: versions 1 and 2 have no directory magic, and some
	// deeper offsets (zero extras) parse as an empty last directory that
	// only Validate's back-link check tells from a real one.
	{"into-frame", func(t testing.TB, b []byte) []byte {
		dirs, _ := chainOf(t, b)
		return relink(b, dirs[0].Offset, dirs[1].Entries[0].Offset+1)
	}},
}

// chainOf returns the directories and header version of a pristine file,
// which must have several directories.
func chainOf(t testing.TB, b []byte) ([]*FrameDir, uint32) {
	t.Helper()
	f, err := NewFile(NewSeekBufferFrom(b))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("want several directories, got %d", len(dirs))
	}
	return dirs, f.Header.HeaderVersion
}

// relink returns a copy of b in which the directory at dir links to next.
func relink(b []byte, dir, next int64) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint64(out[dir+16:], uint64(next))
	return out
}

// within runs fn and fails the test if it has not returned after two
// seconds: a walk that cannot see a cycle must fail by deadline, not
// hang the suite. fn polls stop in any loop of its own.
func within(t *testing.T, what string, fn func(stop *atomic.Bool) error) error {
	t.Helper()
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() { done <- fn(&stop) }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		stop.Store(true)
		t.Fatalf("%s did not return within 2s", what)
		return nil
	}
}

// drain reads a scanner to its first error, giving up (nil) past limit
// records or once stop is set.
func drain(sc *Scanner, limit int64, stop *atomic.Bool) error {
	for n := int64(0); n <= limit && !stop.Load(); n++ {
		if _, err := sc.NextRecord(); err != nil {
			return err
		}
	}
	return nil
}

// TestDamagedChainFailsEveryEntryPoint: whatever is wrong with the
// directory chain, every metadata call and every scan — each on a File
// of its own, so each is that File's first walk — returns the same
// error, promptly, at every header version; and salvage, which does not
// trust the links, still recovers every frame bit-exact.
func TestDamagedChainFailsEveryEntryPoint(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, _ := writeRandomFile(t, 61, 700, version)
		pristine := openFile(t, sb)
		frames, err := pristine.Frames()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, records, err := pristine.Stats()
		if err != nil {
			t.Fatal(err)
		}
		mid := lo + (hi-lo)/2
		entryPoints := []struct {
			name string
			call func(f *File, stop *atomic.Bool) error
		}{
			{"Dirs", func(f *File, _ *atomic.Bool) error { _, err := f.Dirs(); return err }},
			{"Frames", func(f *File, _ *atomic.Bool) error { _, err := f.Frames(); return err }},
			{"Stats", func(f *File, _ *atomic.Bool) error { _, _, _, err := f.Stats(); return err }},
			{"Signature", func(f *File, _ *atomic.Bool) error { _, err := f.Signature(); return err }},
			{"FramesInWindow", func(f *File, _ *atomic.Bool) error { _, err := f.FramesInWindow(lo, mid); return err }},
			{"FramesInWindow/disjoint", func(f *File, _ *atomic.Bool) error { _, err := f.FramesInWindow(hi+1, hi+2); return err }},
			{"FrameContaining/before", func(f *File, _ *atomic.Bool) error { _, _, err := f.FrameContaining(lo - 1); return err }},
			{"FrameContaining/inside", func(f *File, _ *atomic.Bool) error { _, _, err := f.FrameContaining(mid); return err }},
			{"FrameContaining/after", func(f *File, _ *atomic.Bool) error { _, _, err := f.FrameContaining(hi + 1); return err }},
			{"Scan", func(f *File, stop *atomic.Bool) error { return drain(f.Scan(), records, stop) }},
			{"ScanWindow/overlapping", func(f *File, stop *atomic.Bool) error { return drain(f.ScanWindow(lo, mid), records, stop) }},
			{"ScanWindow/disjoint", func(f *File, stop *atomic.Bool) error { return drain(f.ScanWindow(hi+1, hi+2), records, stop) }},
			{"SeekTime", func(f *File, _ *atomic.Bool) error { return f.Scan().SeekTime(hi + 1) }},
			{"All", func(f *File, _ *atomic.Bool) error { _, err := f.ScanWindow(hi+1, hi+2).All(); return err }},
			{"MapFrames", func(f *File, _ *atomic.Bool) error {
				return MapFrames([]*File{f}, MapOptions{Parallel: 1},
					func(_ int, fr *Frame) (int, error) { _, err := fr.Batch(); return 0, err },
					func(int, FrameEntry, int) error { return nil })
			}},
			{"MapFrames/Context", func(f *File, _ *atomic.Bool) error {
				return MapFrames([]*File{f}, MapOptions{Window: true, Lo: hi + 1, Hi: hi + 2, Context: context.Background()},
					func(_ int, fr *Frame) (int, error) { _, err := fr.Batch(); return 0, err },
					func(int, FrameEntry, int) error { return nil })
			}},
			{"Validate", func(f *File, _ *atomic.Bool) error { _, err := f.Validate(nil); return err }},
			{"SummarizeWindow", func(f *File, _ *atomic.Bool) error {
				_, err := SummarizeWindow([]*File{f}, WindowSummaryOptions{Lo: lo, Hi: hi, Bins: 8})
				return err
			}},
		}
		for _, dmg := range ChainDamages {
			damaged := dmg.Apply(t, sb.Bytes())
			var want string
			for _, ep := range entryPoints {
				label := versionName(version) + "/" + dmg.Name + "/" + ep.name
				f, err := NewFile(NewSeekBufferFrom(damaged))
				if err != nil {
					t.Fatal(err)
				}
				err = within(t, label, func(stop *atomic.Bool) error { return ep.call(f, stop) })
				switch {
				case err == nil || err == io.EOF:
					t.Errorf("%s: %v, want the chain's error", label, err)
				case want == "":
					want = err.Error()
				case err.Error() != want:
					t.Errorf("%s: %q, Dirs said %q", label, err, want)
				}
			}

			f, err := NewFile(NewSeekBufferFrom(damaged))
			if err != nil {
				t.Fatal(err)
			}
			sv := f.Salvage()
			if !reflect.DeepEqual(sv.Frames, frames) {
				t.Fatalf("v%d/%s: salvage recovered %d frames, the pristine file has %d", version, dmg.Name, len(sv.Frames), len(frames))
			}
			for _, fe := range frames {
				got, err := f.ReadFrame(fe, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pristine.ReadFrame(fe, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("v%d/%s: salvaged frame at %d differs from the pristine file's", version, dmg.Name, fe.Offset)
				}
			}
		}
	}
}

// dirReads counts, per file offset, the positioned reads that start
// there.
type dirReads struct {
	*SeekBuffer
	mu     sync.Mutex
	starts map[int64]int
}

func (c *dirReads) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.starts[off]++
	c.mu.Unlock()
	return c.SeekBuffer.ReadAt(p, off)
}

// TestChainReadOnce pins the loader: however many metadata calls and
// scans one open File answers, each directory header is read exactly
// once; and a live-tail File over the bytes of a file that has grown
// since reads exactly the sealed directories, once each.
func TestChainReadOnce(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		hdr := testHeader()
		hdr.HeaderVersion = version
		sb := NewSeekBuffer()
		var seals []SealInfo
		w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: 512, FramesPerDir: 3,
			OnSeal: func(si SealInfo) { seals = append(seals, si) }})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			r := mkRecord(i)
			if err := w.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dirs, _ := chainOf(t, sb.Bytes())
		exercise := func(f *File) []FrameEntry {
			t.Helper()
			lo, hi, _, err := f.Stats()
			if err != nil {
				t.Fatal(err)
			}
			frames, err := f.Frames()
			if err != nil {
				t.Fatal(err)
			}
			mid := lo + (hi-lo)/2
			if _, err := f.FramesInWindow(mid, hi); err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.FrameContaining(hi + clock.Time(1)); err != nil {
				t.Fatal(err)
			}
			sc := f.Scan()
			if _, err := sc.All(); err != nil {
				t.Fatal(err)
			}
			if err := sc.SeekTime(mid); err != nil {
				t.Fatal(err)
			}
			if _, err := sc.All(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ScanWindow(mid, hi).All(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Signature(); err != nil {
				t.Fatal(err)
			}
			return frames
		}
		check := func(label string, c *dirReads, sealed int) {
			t.Helper()
			for i, d := range dirs {
				want := 1
				if i >= sealed {
					want = 0
				}
				if got := c.starts[d.Offset]; got != want {
					t.Errorf("v%d %s: directory %d at %d read %d times, want %d", version, label, i, d.Offset, got, want)
				}
			}
		}

		c := &dirReads{SeekBuffer: NewSeekBufferFrom(sb.Bytes()), starts: map[int64]int{}}
		f, err := NewFile(c)
		if err != nil {
			t.Fatal(err)
		}
		exercise(f)
		check("closed file", c, len(dirs))

		// The same bytes — the file as it is now — through the seal a
		// reader was told about while it was still growing.
		seal := seals[len(seals)/2]
		c = &dirReads{SeekBuffer: NewSeekBufferFrom(sb.Bytes()), starts: map[int64]int{}}
		lf, err := NewFile(c, WithLiveTail(seal.Size))
		if err != nil {
			t.Fatal(err)
		}
		if frames := exercise(lf); len(frames) != seal.Frames {
			t.Fatalf("v%d live tail: %d frames visible, the seal covers %d", version, len(frames), seal.Frames)
		}
		check("live tail", c, seal.Dirs)
	}
}

// TestChainFirstCallsRace: metadata calls arriving together on a fresh
// File need no ceremony — one of them walks the chain, every one answers
// from it (run under -race).
func TestChainFirstCallsRace(t *testing.T) {
	sb, _ := writeRandomFile(t, 62, 700, CurrentHeaderVersion)
	dirs, _ := chainOf(t, sb.Bytes())
	c := &dirReads{SeekBuffer: NewSeekBufferFrom(sb.Bytes()), starts: map[int64]int{}}
	f, err := NewFile(c)
	if err != nil {
		t.Fatal(err)
	}
	calls := []func() (int, error){
		func() (int, error) { ds, err := f.Dirs(); return len(ds), err },
		func() (int, error) { fes, err := f.Frames(); return len(fes), err },
		func() (int, error) { _, _, n, err := f.Stats(); return int(n), err },
		func() (int, error) { sig, err := f.Signature(); return int(sig.Frames), err },
		func() (int, error) { fes, err := f.FramesInWindow(-1<<62, 1<<62); return len(fes), err },
		func() (int, error) { _, _, err := f.FrameContaining(0); return 0, err },
		func() (int, error) { return 0, f.Scan().SeekTime(0) },
		func() (int, error) { return 0, f.ScanWindow(0, 1<<62).SeekTime(0) },
	}
	got := make([]int, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := call()
			if err != nil {
				t.Error(err)
			}
			got[i] = n
		}()
	}
	wg.Wait()
	frames, _ := f.Frames()
	if got[0] != len(dirs) || got[1] != len(frames) || got[3] != len(frames) || got[4] != len(frames) || got[2] != 700 {
		t.Fatalf("concurrent first calls answered %v; the file has %d directories, %d frames, 700 records", got, len(dirs), len(frames))
	}
	for i, d := range dirs {
		if n := c.starts[d.Offset]; n != 1 {
			t.Errorf("directory %d read %d times", i, n)
		}
	}
}
