package tracesvc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// answerQuery is one request of the answer harness and the reference
// reply: the status and body a freshly opened file with no frame source
// gives.
type answerQuery struct {
	url  string
	code int
	want string
}

// answerQueries draws the harness's requests over the snapshot open
// returns: for every memoWindows window, each memoPrograms program, the
// predefined tables, the time-resolved tables and a preview at a random
// bin count, a record count and one frames=lo:hi count leg; plus, under
// raw queries identical across endpoints, a /stats that is asked what a
// preview and a count are, and a runtime-error program and a bad bin
// count, which must never be stored. Every reference that takes a worker
// count is the same at Parallel 1 and 4.
func answerQueries(t *testing.T, id string, open func() *interval.File, rng *xrand.Rand) []answerQuery {
	t.Helper()
	ref := open()
	defer ref.Close()
	frames, err := ref.Frames()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ref.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	base := "/v1/traces/" + id
	var qs []answerQuery
	add := func(endpoint string, v url.Values, want string) {
		qs = append(qs, answerQuery{base + endpoint + "?" + v.Encode(), http.StatusOK, want})
	}
	countBody := func(n int) string {
		b, err := json.MarshalIndent(tracesvc.RecordCount{Count: n}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	predefined := func(bins int, window string) string {
		want, err := expectStats(t, open, stats.Predefined(bins), window)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	for _, window := range memoWindows(t, rng, frames) {
		values := func(kv ...string) url.Values {
			v := url.Values{}
			for i := 0; i < len(kv); i += 2 {
				v.Set(kv[i], kv[i+1])
			}
			if window != "" {
				v.Set("window", window)
			}
			return v
		}
		opts := interval.MapOptions{}
		lo, hi := clock.Time(-1<<63), clock.Time(1<<63-1)
		if window != "" {
			if lo, hi, err = clock.ParseWindow(window); err != nil {
				t.Fatal(err)
			}
			opts.Window, opts.Lo, opts.Hi = true, lo, hi
		}
		bins := 1 + rng.Intn(40)
		b := strconv.Itoa(bins)

		for _, p := range memoPrograms {
			want, err := expectStats(t, open, p, window)
			if err != nil {
				t.Fatal(err)
			}
			add("/stats", values("expr", p), want)
		}
		add("/stats", values("bins", b), predefined(bins, window))

		var tables [2]string
		for i, par := range []int{1, 4} {
			opts.Parallel = par
			tbs, err := stats.TimeResolved([]*interval.File{ref}, bins, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tb := range tbs {
				fmt.Fprintf(&buf, "# table %s\n%s\n", tb.Name, tb.TSV())
			}
			tables[i] = buf.String()
		}
		if tables[0] != tables[1] {
			t.Fatalf("window %q: time-resolved tables differ between Parallel 1 and 4", window)
		}
		add("/stats", values("timeresolved", "1", "bins", b), tables[0])

		popts := render.PreviewOptions{Bins: bins}
		if window != "" {
			popts.T0, popts.T1 = lo, max(hi, lo+1)
		}
		pv, err := render.BuildPreview(ref, popts)
		if err != nil {
			t.Fatal(err)
		}
		add("/preview.svg", values("view", "preview", "bins", b), render.PreviewSVG(pv.Preview))
		add("/stats", values("view", "preview", "bins", b), predefined(bins, window))

		n := 0
		for _, r := range recs {
			if r.End() >= lo && r.Start <= hi {
				n++
			}
		}
		add("/records", values("count", "1"), countBody(n))
		add("/stats", values("count", "1"), predefined(interval.DefaultBins, window))

		flo := rng.Intn(len(frames))
		fhi := flo + 1 + rng.Intn(len(frames)-flo)
		n = 0
		for _, fe := range frames[flo:fhi] {
			b, err := ref.FrameBatch(fe)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if b.End(i) >= lo && b.Start[i] <= hi {
					n++
				}
			}
		}
		add("/records", values("count", "1", "frames", fmt.Sprintf("%d:%d", flo, fhi)), countBody(n))
	}
	_, err = expectStats(t, open, errProgram, "")
	if err == nil {
		t.Fatal("the runtime-error program ran clean")
	}
	qs = append(qs,
		answerQuery{statsURL(id, errProgram, "", ""), http.StatusInternalServerError, err.Error() + "\n"},
		answerQuery{base + "/stats?bins=0", http.StatusBadRequest, fmt.Sprintf("bad bins %q (1 to %d)\n", "0", stats.MaxBins)})
	return qs
}

// askAnswers asks every query four times, all askings in one shuffled
// order, and holds every reply to its reference byte for byte. With
// schedule set (a budget nothing is evicted from) it also holds every
// asking to the answer memo's schedule: a query's first asking computes
// and leaves a marker, its second computes and stores, every later one is
// a hit — and an error answer is never stored nor served from the cache.
func askAnswers(t *testing.T, s *tracesvc.Service, qs []answerQuery, rng *xrand.Rand, schedule bool) {
	t.Helper()
	const askings = 4
	order := make([]int, 0, askings*len(qs))
	for i := range qs {
		for k := 0; k < askings; k++ {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	asked := make([]int, len(qs))
	for _, i := range order {
		q := qs[i]
		before := s.Cache().Stats()
		w := do(t, s, "GET", q.url, "")
		if w.Code != q.code || w.Body.String() != q.want {
			t.Fatalf("asking %d of %s: %d, reply differs from a fresh file's (%d)\n--- got ---\n%.600s\n--- want ---\n%.600s", asked[i]+1, q.url, w.Code, q.code, w.Body, q.want)
		}
		after := s.Cache().Stats()
		moved := [3]int64{after.AnswersOnce - before.AnswersOnce, after.AnswersStored - before.AnswersStored, after.AnswerHits - before.AnswerHits}
		asked[i]++
		switch {
		case q.code != http.StatusOK:
			if moved[1] != 0 || moved[2] != 0 {
				t.Fatalf("asking %d of %s: a %d answer was stored or served from the cache (once, stored, hit moved by %v)", asked[i], q.url, q.code, moved)
			}
		case !schedule:
		default:
			want := [3]int64{0, 0, 1}
			if asked[i] <= 2 {
				want[asked[i]-1], want[2] = 1, 0
			}
			if moved != want {
				t.Fatalf("asking %d of %s: once, stored, hit moved by %v, want %v", asked[i], q.url, moved, want)
			}
		}
	}
}

// TestAnswerMemoDifferential is the answer memo's differential harness:
// random windows, bin counts and programs, previews, time-resolved tables
// and count legs, each asked four times in a shuffled order, answer
// byte-identically to a freshly opened file with no frame source — over
// a static trace with a sidecar, across a live trace's seal generations
// (each generation's answers are its own), and through a budget so small
// that answers and partials evict one another all the time.
func TestAnswerMemoDifferential(t *testing.T) {
	var sizes []int64
	path := writeMemoTrace(t, t.TempDir(), 3000, func(si interval.SealInfo) {
		if len(sizes) == 0 || si.Size > sizes[len(sizes)-1] {
			sizes = append(sizes, si.Size)
		}
	})
	if len(sizes) < 4 {
		t.Fatalf("only %d seals", len(sizes))
	}
	if b, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{BaseCells: 128}); err != nil || b.Declined() {
		t.Fatalf("fixture sidecar: %v, declined %v", err, b != nil && b.Declined())
	}
	open := func() *interval.File {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pyramid() == nil {
			t.Fatal("the sidecar did not attach")
		}
		return f
	}
	rng := xrand.New(34)

	t.Run("static", func(t *testing.T) {
		s := tracesvc.New(tracesvc.Config{})
		defer s.Close()
		id := openTrace(t, s, path)
		qs := answerQueries(t, id, open, rng)
		askAnswers(t, s, qs, rng, true)
		cs := s.Cache().Stats()
		if cs.AnswersStored != int64(len(qs)-2) || cs.AnswerBytes <= 0 {
			t.Fatalf("%d answers stored in %d bytes, want %d", cs.AnswersStored, cs.AnswerBytes, len(qs)-2)
		}
		for result, want := range map[string]int64{"hit": cs.AnswerHits, "once": cs.AnswersOnce, "stored": cs.AnswersStored, "bypass": 0} {
			if got := metricValue(t, s, `tracesvc_answers_total{result="`+result+`"}`); got != want {
				t.Fatalf("tracesvc_answers_total{result=%q} = %d, want %d", result, got, want)
			}
		}
		do(t, s, "GET", qs[0].url+"&format=json", "")
		if got := metricValue(t, s, `tracesvc_answers_total{result="bypass"}`); got != 1 {
			t.Fatalf("a JSON /stats moved the bypass count by %d", got)
		}
		// Closing the trace drops its answers; the path reopened is a new
		// namespace that starts cold.
		do(t, s, "DELETE", "/v1/traces/"+id, "")
		if cs := s.Cache().Stats(); cs.AnswerBytes != 0 {
			t.Fatalf("a closed trace left %d answer bytes", cs.AnswerBytes)
		}
		askAnswers(t, s, answerQueries(t, openTrace(t, s, path), open, rng), rng, true)
	})

	t.Run("live", func(t *testing.T) {
		s := tracesvc.New(tracesvc.Config{})
		defer s.Close()
		prov := &sealedLive{path: path}
		id := s.Registry().AddLive(prov)
		var gens [][]answerQuery
		for _, size := range []int64{sizes[len(sizes)/3], sizes[2*len(sizes)/3], sizes[len(sizes)-1]} {
			prov.publish(size)
			open := func() *interval.File {
				f, err := interval.Open(path, interval.WithLiveTail(size), interval.WithPyramid(false))
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			qs := answerQueries(t, id, open, xrand.New(35))
			askAnswers(t, s, qs, rng, true)
			gens = append(gens, qs)
		}
		// The same requests, drawn by the same seed over each generation,
		// answer differently as the trace grows: a key without the
		// generation would serve the last one's answers.
		if gens[0][0].url != gens[1][0].url || gens[0][0].want == gens[1][0].want {
			t.Fatalf("the generations' first requests differ (%q, %q) or share an answer", gens[0][0].url, gens[1][0].url)
		}
	})

	t.Run("evicting", func(t *testing.T) {
		const budget = 1 << 16
		s := tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: 1})
		defer s.Close()
		id := openTrace(t, s, path)
		qs := answerQueries(t, id, open, rng)
		askAnswers(t, s, qs, rng, false)
		cs := s.Cache().Stats()
		if cs.AnswersOnce <= int64(len(qs)) || cs.AnswersStored == 0 {
			t.Fatalf("no answer was evicted, or none stored, under a %d-byte budget: %+v", budget, cs)
		}
		if cs.PartialBytes+cs.AnswerBytes > budget {
			t.Fatalf("cache holds %d partial and %d answer bytes, budget %d", cs.PartialBytes, cs.AnswerBytes, budget)
		}
	})
}

// TestAnswerNeverStoresCancelled: an answer whose storing asking is cut
// off — its request cancelled, or past its deadline — answers 504 (or,
// finished anyway, the right body) and stores nothing, so the next
// asking computes again; only an asking that completes in time stores.
// Concurrent askings of an answer being stored wait for it: one store,
// every other asking a hit.
func TestAnswerNeverStoresCancelled(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	u := "/v1/traces/" + id + "/stats?bins=9&window=0.1:0.4"
	want := do(t, s, "GET", u, "").Body.String()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for i, ctx := range []context.Context{cancelled, expired} {
		// The key's marker is there (the first asking left it, and a
		// failed store leaves none, so later rounds ask once more): the
		// cut-off asking is the one that would store.
		if i > 0 {
			do(t, s, "GET", u, "")
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", u, nil).WithContext(ctx))
		if !(w.Code == http.StatusGatewayTimeout || w.Code == http.StatusOK && w.Body.String() == want) {
			t.Fatalf("%v: %d %.200s", ctx.Err(), w.Code, w.Body)
		}
		if cs := s.Cache().Stats(); cs.AnswersStored != 0 || cs.AnswerHits != 0 {
			t.Fatalf("%v: an asking cut off stored (%d) or hit (%d) an answer", ctx.Err(), cs.AnswersStored, cs.AnswerHits)
		}
	}
	// The cut-off store left nothing, not even its marker: one asking to
	// mark the key again, one to store it, one to hit.
	for i := 0; i < 3; i++ {
		if got := do(t, s, "GET", u, "").Body.String(); got != want {
			t.Fatal("body differs from the first answer")
		}
	}
	if cs := s.Cache().Stats(); cs.AnswersOnce != 3 || cs.AnswersStored != 1 || cs.AnswerHits != 1 {
		t.Fatalf("after three askings in time: %d marked, %d stored, %d hits; want 3, 1 and 1", cs.AnswersOnce, cs.AnswersStored, cs.AnswerHits)
	}

	u2 := "/v1/traces/" + id + "/preview.svg?view=preview&bins=9&window=0.1:0.4"
	want2 := do(t, s, "GET", u2, "").Body.String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := do(t, s, "GET", u2, ""); w.Code != http.StatusOK || w.Body.String() != want2 {
				t.Errorf("concurrent asking: %d, body differs from the first answer", w.Code)
			}
		}()
	}
	wg.Wait()
	if cs := s.Cache().Stats(); cs.AnswersStored != 2 || cs.AnswerHits != 8 {
		t.Fatalf("8 concurrent second askings: %d stored, %d hits; want 2 and 8", cs.AnswersStored, cs.AnswerHits)
	}
}
