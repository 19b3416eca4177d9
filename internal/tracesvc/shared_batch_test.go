package tracesvc_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// residentBytes scrapes tracesvc_cache_bytes_resident from /metrics.
func residentBytes(t *testing.T, s *tracesvc.Service) int64 {
	t.Helper()
	for _, line := range strings.Split(do(t, s, "GET", "/metrics", "").Body.String(), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "tracesvc_cache_bytes_resident %d", &v); err == nil {
			return v
		}
	}
	t.Fatal("metrics lack tracesvc_cache_bytes_resident")
	return 0
}

// checkCacheAccounting asserts the budget is exact: the exported gauge
// equals the sum of the resident batches' footprints plus the charge of
// every once-seen frame marker, stays within the budget, and every
// resident batch is right-sized and bit-equal to a fresh hook-blind
// decode of its frame — so nothing uncounted is kept, and no consumer
// wrote through a Row alias. It returns the resident frames and markers.
func checkCacheAccounting(t *testing.T, s *tracesvc.Service, tr *tracesvc.Trace, budget int64) (frames, markers int) {
	t.Helper()
	byOff := map[int64]interval.FrameEntry{}
	for _, fe := range tr.Frames() {
		byOff[fe.Offset] = fe
	}
	var sum int64
	for off, b := range s.Cache().Resident() {
		if b == nil {
			sum += tracesvc.MarkerBytes
			markers++
			continue
		}
		frames++
		sum += b.Footprint()
		fresh, err := tr.File().ReadFrameBatch(byOff[off])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, fresh) {
			t.Fatalf("resident batch of the frame at %d differs from a fresh decode", off)
		}
		if got := fresh.Footprint(); got != b.Footprint() {
			t.Fatalf("frame at %d: resident footprint %d, a right-sized decode is %d", off, b.Footprint(), got)
		}
	}
	if got := residentBytes(t, s); got != sum {
		t.Fatalf("tracesvc_cache_bytes_resident = %d, resident batches sum to %d", got, sum)
	}
	if sum > budget {
		t.Fatalf("cache holds %d bytes, budget %d", sum, budget)
	}
	return frames, markers
}

// TestCacheBudgetIsExact: after an eviction storm — full scans through a
// cache a fraction of the decoded trace, over one shard and over several
// — the resident gauge is the exact sum of the resident footprints and
// never above the budget.
func TestCacheBudgetIsExact(t *testing.T) {
	const budget = 1 << 16
	for _, shards := range []int{1, 4} {
		s := tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: shards})
		path := writeTrace(t, t.TempDir(), 4000)
		tr, _ := s.Registry().Resolve(openTrace(t, s, path))
		for i := 0; i < 3; i++ {
			if w := do(t, s, "GET", "/v1/traces/"+tr.ID+"/records?limit=1", ""); w.Code != 200 {
				t.Fatalf("scan %d: %d %s", i, w.Code, w.Body)
			}
			checkCacheAccounting(t, s, tr, budget)
		}
		cs := s.Cache().Stats()
		if cs.Evictions == 0 || cs.Entries == 0 {
			t.Fatalf("%d shards: no storm (%+v)", shards, cs)
		}
		s.Close()
	}
}

// TestSharedBatchesUnderEviction runs every batch consumer at once —
// stats tables, time-resolved tables, the histogram preview, a diagram,
// /records pages and a ScanWindowCtx scanner — against one trace whose
// cache is small enough to evict mid-request. Every answer must equal
// the one a cold, roomy service gives, and afterwards every batch still
// resident must be bit-equal to a fresh decode: shared batches are
// read-only, and an evicted batch stays valid for whoever holds it. Run
// under -race.
func TestSharedBatchesUnderEviction(t *testing.T) {
	const budget = 1 << 16
	path := writeTrace(t, t.TempDir(), 4000)
	urls := []string{
		"/stats?bins=8",
		"/stats?window=0.2:1.4&bins=8",
		"/stats?expr=" + "table+name%3Dm+x%3D%28%22m%22%2C+markername%29+y%3D%28%22n%22%2C+dura%2C+count%29",
		"/stats?timeresolved=1&bins=16",
		"/preview.svg?view=preview&bins=32",
		"/preview.svg?window=0.5:0.6",
		"/records?window=0.3:1.2&offset=100&limit=500",
		"/records?count=1",
	}

	// Reference answers: each query cold on its own roomy service.
	want := make([]string, len(urls))
	for i, u := range urls {
		ref := tracesvc.New(tracesvc.Config{})
		w := do(t, ref, "GET", "/v1/traces/"+openTrace(t, ref, path)+u, "")
		if w.Code != 200 {
			t.Fatalf("reference GET %s: %d %s", u, w.Code, w.Body)
		}
		want[i] = w.Body.String()
		ref.Close()
	}
	plain, err := interval.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	first, last, _, err := plain.Stats()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := first+(last-first)/4, first+(last-first)*3/4
	wantRecs, err := plain.ScanWindow(lo, hi).All()
	if err != nil {
		t.Fatal(err)
	}

	s := tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: 2})
	defer s.Close()
	tr, _ := s.Registry().Resolve(openTrace(t, s, path))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for i := range urls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					w := do(t, s, "GET", "/v1/traces/"+tr.ID+urls[i], "")
					if w.Code != 200 || w.Body.String() != want[i] {
						t.Errorf("GET %s under eviction: %d, body differs from the cold answer", urls[i], w.Code)
						return
					}
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := tr.File().ScanWindowCtx(context.Background(), lo, hi).All()
			if err != nil || !reflect.DeepEqual(got, wantRecs) {
				t.Errorf("hook-fed window scan under eviction: %v, %d records, want %d", err, len(got), len(wantRecs))
			}
		}()
	}
	wg.Wait()
	if cs := s.Cache().Stats(); cs.Evictions == 0 || cs.Hits == 0 {
		t.Fatalf("the cache neither evicted nor shared (%+v)", cs)
	}
	checkCacheAccounting(t, s, tr, budget)
}
