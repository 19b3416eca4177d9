package interval

import (
	"strings"
	"testing"

	"tracefw/internal/profile"
)

func validFile(t *testing.T, n int) *SeekBuffer {
	t.Helper()
	return writeTestFile(t, n, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
}

func TestValidateCleanFile(t *testing.T) {
	sb := validFile(t, 500)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Validate(profile.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 500 || rep.Frames == 0 || rep.Dirs == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestValidateWithoutProfile(t *testing.T) {
	sb := validFile(t, 50)
	f, _ := NewFile(sb)
	if _, err := f.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateWrongProfileVersion(t *testing.T) {
	sb := validFile(t, 10)
	f, _ := NewFile(sb)
	p := profile.New(0xbad)
	if _, err := f.Validate(p); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted: %v", err)
	}
}

// corruptAt flips one byte at off and reports whether the file still
// passes NewFile + Validate.
func corruptAt(t *testing.T, base []byte, off int) bool {
	t.Helper()
	mut := append([]byte(nil), base...)
	mut[off] ^= 0xff
	sb := NewSeekBuffer()
	sb.Write(mut)
	f, err := NewFile(sb)
	if err != nil {
		return false
	}
	_, err = f.Validate(profile.Standard())
	return err == nil
}

func TestValidateDetectsStructuralCorruption(t *testing.T) {
	sb := validFile(t, 300)
	base := append([]byte(nil), sb.Bytes()...)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	firstDir := int(f.FirstDir)
	dh := dirHeaderSize(CurrentHeaderVersion)
	// Structural fields whose corruption must always be caught: the
	// thread count (header offset 16), the first directory's frame count,
	// its prev/next links, its aggregate bounds and record count, and the
	// first frame entry's offset, byte size, record count, and time
	// bounds.
	offsets := map[string]int{
		"numThreads":   16,
		"dirNumFrames": firstDir + 0,
		"dirPrev":      firstDir + 8,
		"dirNext":      firstDir + 16,
		"dirStart":     firstDir + 24,
		"dirEnd":       firstDir + 32,
		"dirRecords":   firstDir + 40,
		"frameOffset":  firstDir + dh + 0,
		"frameBytes":   firstDir + dh + 8,
		"frameRecords": firstDir + dh + 12,
		"frameStart":   firstDir + dh + 16,
		"frameEnd":     firstDir + dh + 24,
	}
	for name, off := range offsets {
		if corruptAt(t, base, off) {
			t.Errorf("corrupting %s (offset %d) went undetected", name, off)
		}
	}
	// And a flip inside a record's type field must be caught by the
	// profile check (no spec for the mangled type).
	recOff := firstDir + dh + 4*entrySize(CurrentHeaderVersion) + 1 // skip the length byte
	if corruptAt(t, base, recOff) {
		t.Error("corrupting a record type byte went undetected")
	}
}

func TestValidateDetectsTruncation(t *testing.T) {
	sb := validFile(t, 300)
	base := sb.Bytes()
	for _, cut := range []int{len(base) - 1, len(base) / 2, len(base) / 4} {
		tr := NewSeekBuffer()
		tr.Write(base[:cut])
		f, err := NewFile(tr)
		if err != nil {
			continue
		}
		if _, err := f.Validate(profile.Standard()); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestValidateDetectsBadMagic(t *testing.T) {
	sb := validFile(t, 10)
	b := sb.Bytes()
	b[0] ^= 0xff
	tr := NewSeekBuffer()
	tr.Write(b)
	if _, err := NewFile(tr); err == nil {
		t.Fatal("bad magic accepted")
	}
}
