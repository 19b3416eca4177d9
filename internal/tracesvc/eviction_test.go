package tracesvc_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// checkCharged asserts the memo's accounting: what the partials and the
// answers are charged is never negative and never above the budget.
func checkCharged(t *testing.T, s *tracesvc.Service, budget int64) {
	t.Helper()
	cs := s.Cache().Stats()
	if cs.PartialBytes < 0 || cs.AnswerBytes < 0 || cs.PartialBytes+cs.AnswerBytes > budget {
		t.Fatalf("cache holds %d partial and %d answer bytes, budget %d", cs.PartialBytes, cs.AnswerBytes, budget)
	}
}

// TestCacheBudgetIsExact: after an eviction storm — laps of stats and
// previews over many windows through a budget a fraction of their
// partials and answers, over one shard and over several — the bytes
// charged are never above the budget, and emptying the cache brings both
// gauges back to exactly zero: every charge was refunded once.
func TestCacheBudgetIsExact(t *testing.T) {
	const budget = 1 << 18
	path := writeTrace(t, t.TempDir(), 4000)
	for _, shards := range []int{1, 4} {
		s := tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: shards})
		id := openTrace(t, s, path)
		for lap := 0; lap < 3; lap++ {
			for i := 0; i < 16; i++ {
				window := fmt.Sprintf("%.2f:%.2f", 0.1*float64(i), 0.1*float64(i)+0.1)
				// Asked twice in a row, so the second asking stores.
				for _, u := range []string{"/stats?bins=16&window=" + window, "/stats?bins=16&window=" + window,
					"/preview.svg?view=preview&bins=64&window=" + window, "/preview.svg?view=preview&bins=64&window=" + window} {
					if w := do(t, s, "GET", "/v1/traces/"+id+u, ""); w.Code != 200 {
						t.Fatalf("lap %d, GET %s: %d %s", lap, u, w.Code, w.Body)
					}
				}
			}
			checkCharged(t, s, budget)
		}
		if cs := s.Cache().Stats(); cs.Evictions == 0 || cs.AnswersStored == 0 || cs.PartialsStored == 0 {
			t.Fatalf("%d shards: no storm (%+v)", shards, cs)
		}
		s.Cache().Flush()
		for _, g := range []string{"tracesvc_stats_partials_bytes_resident", "tracesvc_answers_bytes_resident"} {
			if got := metricValue(t, s, g); got != 0 {
				t.Fatalf("%d shards: %s = %d after a flush", shards, g, got)
			}
		}
		s.Close()
	}
}

// TestSharedBatchesUnderEviction runs every batch consumer at once —
// stats tables, time-resolved tables, the histogram preview, a diagram,
// /records pages and a window scanner — against one trace whose
// memo is small enough to evict mid-request. Every answer must equal the
// one a cold, roomy service gives, and the memo must both evict and
// answer from what it kept, within its budget. Run under -race.
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
			got, err := tr.File().ScanWindow(lo, hi).All()
			if err != nil || !reflect.DeepEqual(got, wantRecs) {
				t.Errorf("window scan under eviction: %v, %d records, want %d", err, len(got), len(wantRecs))
			}
		}()
	}
	wg.Wait()
	if cs := s.Cache().Stats(); cs.Evictions == 0 || cs.AnswerHits+cs.PartialHits == 0 {
		t.Fatalf("the cache neither evicted nor reused (%+v)", cs)
	}
	checkCharged(t, s, budget)
}
