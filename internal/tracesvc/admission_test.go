package tracesvc_test

import (
	"reflect"
	"runtime"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// TestFirstScanKeepsNoFrame: a whole-trace stats scan lends the cache its
// pooled batches, so it leaves no decoded frame resident — only a
// once-seen marker per frame, charged MarkerBytes each; the second scan
// decodes every frame again and stores it, and the third decodes none —
// its per-frame stats partials are memoized, so it fetches no frame and
// is no cache hit either. /metrics splits the misses by what they left.
func TestFirstScanKeepsNoFrame(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 2000)
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	n := len(tr.Frames())
	for scan, want := range []struct {
		decoded, frames, markers int
	}{{n, 0, n}, {2 * n, n, 0}, {2 * n, n, 0}} {
		if w := do(t, s, "GET", "/v1/traces/"+id+"/stats?bins=8", ""); w.Code != 200 {
			t.Fatalf("scan %d: %d %s", scan+1, w.Code, w.Body)
		}
		if got := metricValue(t, s, "tracesvc_frames_decoded_total"); got != int64(want.decoded) {
			t.Fatalf("after scan %d: %d frames decoded, want %d", scan+1, got, want.decoded)
		}
		frames, markers := checkCacheAccounting(t, s, tr, 256<<20)
		if frames != want.frames || markers != want.markers {
			t.Fatalf("after scan %d: %d frames and %d markers resident, want %d and %d", scan+1, frames, markers, want.frames, want.markers)
		}
	}
	for _, m := range []struct {
		name string
		want int64
	}{
		{`tracesvc_cache_admissions_total{result="once"}`, int64(n)},
		{`tracesvc_cache_admissions_total{result="stored"}`, int64(n)},
		{"tracesvc_cache_misses_total", 2 * int64(n)},
		{"tracesvc_cache_hits_total", 0},
	} {
		if got := metricValue(t, s, m.name); got != m.want {
			t.Fatalf("%s = %d, want %d", m.name, got, m.want)
		}
	}
}

// TestFirstUseWaiterIsSecondUse: a request that arrives while a frame's
// first decode is still running waits for it instead of decoding — it is
// the frame's second use, so the first decode stores a right-sized copy
// for it, while the first caller keeps its own scratch.
func TestFirstUseWaiterIsSecondUse(t *testing.T) {
	f, err := interval.Open(writeTrace(t, t.TempDir(), 300))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	fe := fes[0]
	c := tracesvc.NewFrameCache(1<<20, 1)
	decodes := 0
	started, release := make(chan struct{}), make(chan struct{})
	decode := func(dst *interval.Batch) error {
		decodes++
		close(started)
		<-release
		return f.DecodeFrameBatch(fe, dst)
	}
	scratch := new(interval.Batch)
	firstDone := make(chan *interval.Batch)
	go func() {
		b, err := c.Get(1, fe.Offset, scratch, decode)
		if err != nil {
			t.Error(err)
		}
		firstDone <- b
	}()
	<-started
	secondDone := make(chan *interval.Batch)
	go func() {
		b, err := c.Get(1, fe.Offset, new(interval.Batch), func(*interval.Batch) error {
			t.Error("a request arriving during the first decode decoded the frame again")
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		secondDone <- b
	}()
	for !c.Waiting(1, fe.Offset) {
		runtime.Gosched()
	}
	close(release)
	first, second := <-firstDone, <-secondDone
	want, err := f.ReadFrameBatch(fe)
	if err != nil {
		t.Fatal(err)
	}
	if first != scratch {
		t.Fatal("the first use did not get its own scratch back")
	}
	if second == scratch || !reflect.DeepEqual(second, want) {
		t.Fatal("the waiter did not get a right-sized stored copy of the frame")
	}
	cs := c.Stats()
	if decodes != 1 || cs.AdmittedStored != 1 || cs.AdmittedOnce != 0 || cs.Entries != 1 || cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("%d decodes, counters %+v", decodes, cs)
	}
	if cs.Bytes != second.Footprint() {
		t.Fatalf("%d bytes charged for a %d-byte frame", cs.Bytes, second.Footprint())
	}
	if b, err := c.Get(1, fe.Offset, scratch, decode); err != nil || b != second {
		t.Fatalf("a later use got %p (%v), the stored copy is %p", b, err, second)
	}
}
