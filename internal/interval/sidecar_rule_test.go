// The sidecar size rule, at both ends: BuildPyramidSidecar does not
// write (and removes) a sidecar that would outweigh its trace, Open does
// not read one that does, and a sidecar that is written is the parent
// commit's, byte for byte. External test package so the fixtures can
// come out of the real pipeline.
package interval_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/testutil"
)

// mergedOnDisk runs main on sh and merges the run to a file.
func mergedOnDisk(t *testing.T, sh testutil.Shape, main func(*mpisim.Proc)) string {
	t.Helper()
	files := testutil.ConvertRun(t, testutil.RunWorkload(t, sh, main), interval.WriterOptions{})
	return testutil.MergeToDisk(t, files, merge.Options{})
}

func TestSidecarRuleDeclinesWideTrace(t *testing.T) {
	path := mergedOnDisk(t, testutil.WideShape, testutil.NestedWork(6))
	pp := interval.PyramidPath(path)
	// A sidecar an earlier build left behind must not survive a
	// declined rebuild.
	if err := os.WriteFile(pp, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Declined() || b.Bytes <= b.TraceBytes {
		t.Fatalf("wide trace: sidecar %d bytes over a %d-byte trace was not declined", b.Bytes, b.TraceBytes)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != b.TraceBytes {
		t.Fatalf("TraceBytes %d, the file is %v bytes (%v)", b.TraceBytes, st.Size(), err)
	}
	if _, err := os.Stat(pp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("declined build left %s behind (stat: %v)", pp, err)
	}

	// The open side of the same rule: the very sidecar the build
	// declined — valid, current, but heavier than the trace — is skipped
	// when found on disk, while LoadPyramid, which is not Open, proves
	// nothing else is wrong with it.
	if err := os.WriteFile(pp, b.Pyramid.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := interval.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Pyramid() != nil {
		t.Fatal("Open attached a sidecar that outweighs its trace")
	}
	if _, err := interval.LoadPyramid(pp, f); err != nil {
		t.Fatalf("the oversized sidecar is otherwise sound, yet: %v", err)
	}
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := interval.SummarizeWindow([]*interval.File{f}, interval.WindowSummaryOptions{Bins: 8, Lo: first, Hi: last})
	if err != nil || ws.Engine != "scan" {
		t.Fatalf("summary over an ignored sidecar: engine %q, %v", ws.Engine, err)
	}
}

func TestSidecarRuleWritesNarrowTraceUnchanged(t *testing.T) {
	narrow := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 13}
	path := mergedOnDisk(t, narrow, func(p *mpisim.Proc) {
		for i := 0; i < 400; i++ {
			p.Compute(clock.Time(1+p.Rank()) * 100 * clock.Microsecond)
			p.Sendrecv(1-p.Rank(), int32(i), 512, int32(1-p.Rank()), int32(i))
			if i%16 == 0 {
				p.Allreduce(64)
			}
		}
	})
	// The default 4096 base cells suit traces of megabytes; this one is
	// tens of kilobytes.
	b, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{BaseCells: 128})
	if err != nil {
		t.Fatal(err)
	}
	if b.Declined() {
		t.Fatalf("narrow trace: sidecar %d bytes over a %d-byte trace was declined", b.Bytes, b.TraceBytes)
	}
	data, err := os.ReadFile(interval.PyramidPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != b.Bytes {
		t.Fatalf("sidecar on disk is %d bytes, the build reported %d", len(data), b.Bytes)
	}
	// What the commit before the size rule wrote for this trace, in the
	// version-2 encoding (its cells without top-k lists or start counts):
	// 3 870 bytes, 18 138 in version 1.
	const parent = "1e1cd410099084646cde671ab1cd140f08c61daf886e1132339117aae40f9e3c"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != parent {
		t.Fatalf("sidecar hash %s, the parent's %s", got, parent)
	}
	f, err := interval.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Pyramid() == nil {
		t.Fatal("Open did not attach a sidecar lighter than its trace")
	}
}
