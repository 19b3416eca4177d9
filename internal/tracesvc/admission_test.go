package tracesvc_test

import (
	"net/url"
	"reflect"
	"runtime"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// TestFirstScanKeepsNoFrame: a whole-trace stats scan never leaves a
// decoded frame it did not need twice. The predefined tables memoize a
// partial per frame, so their scans read frames only to compute
// partials: the first two decode every frame and admit none of them —
// not even a once-seen marker — and the third, its partials stored,
// fetches no frame and is no cache hit either. A concatenation memoizes
// nothing, so its scans fall under the second-use rule: the first lends
// the cache its pooled batches and leaves only a once-seen marker per
// frame, charged MarkerBytes each, the second decodes every frame again
// and stores it, and the third is all hits. /metrics splits the misses
// by what they left. Each scan has a fresh answer key: a stored whole
// answer would read no frame at all.
func TestFirstScanKeepsNoFrame(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		// After each scan, in multiples of the frame count: frames
		// decoded so far, frames resident, markers resident.
		scans [3][3]int
		// Admissions that left a marker, a stored frame and nothing, and
		// hits, in multiples of the frame count.
		once, stored, none, hits int64
	}{
		{"memoized", "bins=8", [3][3]int{{1, 0, 0}, {2, 0, 0}, {2, 0, 0}}, 0, 0, 2, 0},
		{"concatenation", "expr=" + url.QueryEscape(`table name=c x=("c", state + "!") y=("n", dura, count)`),
			[3][3]int{{1, 0, 1}, {2, 1, 0}, {2, 1, 0}}, 1, 1, 0, 1},
	} {
		s := tracesvc.New(tracesvc.Config{})
		path := writeTrace(t, t.TempDir(), 2000)
		id := openTrace(t, s, path)
		tr, _ := s.Registry().Resolve(id)
		n := len(tr.Frames())
		for scan, want := range tc.scans {
			if w := do(t, s, "GET", fresh("/v1/traces/"+id+"/stats?"+tc.query), ""); w.Code != 200 {
				t.Fatalf("%s scan %d: %d %s", tc.name, scan+1, w.Code, w.Body)
			}
			if got := metricValue(t, s, "tracesvc_frames_decoded_total"); got != int64(want[0]*n) {
				t.Fatalf("%s: after scan %d: %d frames decoded, want %d", tc.name, scan+1, got, want[0]*n)
			}
			frames, markers := checkCacheAccounting(t, s, tr, 256<<20)
			if frames != want[1]*n || markers != want[2]*n {
				t.Fatalf("%s: after scan %d: %d frames and %d markers resident, want %d and %d", tc.name, scan+1, frames, markers, want[1]*n, want[2]*n)
			}
		}
		for _, m := range []struct {
			name string
			want int64
		}{
			{`tracesvc_cache_admissions_total{result="once"}`, tc.once},
			{`tracesvc_cache_admissions_total{result="stored"}`, tc.stored},
			{`tracesvc_cache_admissions_total{result="none"}`, tc.none},
			{"tracesvc_cache_misses_total", 2},
			{"tracesvc_cache_hits_total", tc.hits},
		} {
			if got := metricValue(t, s, m.name); got != m.want*int64(n) {
				t.Fatalf("%s: %s = %d, want %d", tc.name, m.name, got, m.want*int64(n))
			}
		}
		s.Close()
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
