package tracesvc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// writeMemoTrace writes an n-record trace built to trip a per-frame
// stats memo: a marker table (one id the records use is missing from
// it), bebits of every kind, every fourth record zero-duration and
// runs of records sharing an end time, so zero-duration records sit
// exactly on frame bounds — and therefore on frame-aligned window edges.
// onSeal (nil for none) sees every directory seal.
func writeMemoTrace(t testing.TB, dir string, n int, onSeal func(interval.SealInfo)) string {
	t.Helper()
	rng := xrand.New(7)
	recs := make([]interval.Record, n)
	end := clock.Time(0)
	for i := range recs {
		if rng.Intn(3) > 0 {
			end += clock.Time(rng.Int63n(int64(clock.Millisecond)))
		}
		r := interval.Record{
			Bebits: profile.Bebits(rng.Intn(4)),
			Start:  end,
			CPU:    uint16(i % 4),
			Node:   uint16(i % 2),
			Thread: uint16(i % 3),
		}
		if i%4 != 0 {
			r.Dura = clock.Time(rng.Int63n(int64(2 * clock.Millisecond)))
			r.Start = end - r.Dura
		}
		if i%3 == 0 {
			r.Type = events.EvMarkerState
			r.Extra = []uint64{uint64(1 + rng.Intn(len(memoMarkers)+1)), 0, 0}
		} else {
			r.Type = events.EvMPISend
			r.Extra = []uint64{uint64(i % 2), 7, uint64(64 * (i % 5)), 0, 0, 0}
		}
		recs[i] = r
	}
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads: []interval.ThreadEntry{
			{Task: 0, PID: 100, SysTID: 1, Node: 0, LTID: 0, Type: events.ThreadMPI},
			{Task: 1, PID: 101, SysTID: 2, Node: 1, LTID: 0, Type: events.ThreadMPI},
		},
		Markers: memoMarkers,
	}
	path := filepath.Join(dir, "memo.ute")
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 4, OnSeal: onSeal})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// memoMarkers is the harness trace's marker table: more names than fit
// one map bucket, so map iteration order really varies.
var memoMarkers = map[uint64]string{1: "alpha", 2: "beta", 3: "Phase A", 4: "gamma", 5: "delta",
	6: "epsilon", 7: "zeta", 8: "eta", 9: "theta", 10: "iota", 11: "kappa", 12: "lambda"}

// memoPrograms are the harness's programs: the predefined tables and a
// one-table program (both read the run bounds through bin(), and share
// every other key ingredient), a marker-keyed program (its group keys
// are dictionary codes), and a string concatenation, which bypasses the
// memo.
var memoPrograms = []string{
	stats.Predefined(7),
	`table name=n x=("node", node) x=("b", bin(start, 3)) y=("n", dura, count)`,
	`table name=m x=("m", markername) x=("b", bin(start, 5)) y=("n", dura, count) y=("t", dura, sum)
table name=s condition=(markername != "beta") x=("b", bebits) y=("max", dura, max) y=("min", start, min)`,
	`table name=c x=("c", markername + "/" + state) y=("n", dura, count) y=("t", dura, sum)`,
}

// errProgram fails at run time on every frame: the 500 must repeat, and
// nothing may be stored for it.
const errProgram = `table name=e y=("x", dura / (cpu - cpu), sum)`

// memoWindows draws the harness's windows over a snapshot: unwindowed,
// one frame's exact bounds, frame-aligned spans, and random ones, each
// written the way a client would and checked to survive the decimal
// round trip, so an aligned window is really aligned.
func memoWindows(t *testing.T, rng *xrand.Rand, frames []interval.FrameEntry) []string {
	t.Helper()
	first, last := frames[0].Start, frames[0].End
	for _, fe := range frames {
		first, last = min(first, fe.Start), max(last, fe.End)
	}
	ws := []string{""}
	add := func(lo, hi clock.Time) {
		w := fmt.Sprintf("%.9f:%.9f", lo.Seconds(), hi.Seconds())
		if plo, phi, err := clock.ParseWindow(w); err != nil || plo != lo || phi != hi {
			t.Fatalf("window %q round-trips to [%v .. %v], want [%v .. %v]", w, plo, phi, lo, hi)
		}
		ws = append(ws, w)
	}
	fe := frames[rng.Intn(len(frames))]
	add(fe.Start, fe.End)
	for k := 0; k < 3; k++ {
		i := rng.Intn(len(frames))
		j := i + rng.Intn(len(frames)-i)
		add(frames[i].Start, frames[j].End)
	}
	for k := 0; k < 3; k++ {
		lo := first + clock.Time(rng.Int63n(int64(last-first)))
		add(lo, lo+clock.Time(rng.Int63n(int64(last-lo)+1)))
	}
	return ws
}

// expectStats is the reference answer: stats.GenerateOpts over a freshly
// opened, hook-less file, rendered as the TSV body, identically at
// Parallel 1 and 4. A failing program's reference is its error text.
func expectStats(t *testing.T, open func() *interval.File, program, window string) (string, error) {
	t.Helper()
	var bodies [2]string
	var errs [2]error
	for i, par := range []int{1, 4} {
		f := open()
		opts := interval.MapOptions{Parallel: par}
		if window != "" {
			lo, hi, err := clock.ParseWindow(window)
			if err != nil {
				t.Fatal(err)
			}
			opts.Window, opts.Lo, opts.Hi = true, lo, hi
		}
		tables, err := stats.GenerateOpts(program, []*interval.File{f}, opts)
		f.Close()
		var b bytes.Buffer
		for _, tb := range tables {
			fmt.Fprintf(&b, "# table %s\n%s\n", tb.Name, tb.TSV())
		}
		bodies[i], errs[i] = b.String(), err
	}
	if bodies[0] != bodies[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		t.Fatalf("reference differs between Parallel 1 and 4 (%s, window %q)", program, window)
	}
	return bodies[0], errs[0]
}

// statsURL is the request for a program over a window ("" unwindowed).
func statsURL(id, program, window, format string) string {
	q := url.Values{"expr": {program}}
	if window != "" {
		q.Set("window", window)
	}
	if format != "" {
		q.Set("format", format)
	}
	return "/v1/traces/" + id + "/stats?" + q.Encode()
}

// fresh gives u an answer key never asked before — a parameter no
// handler reads — so that the asking reaches the per-frame memos rather
// than the whole answer the service stores from a key's second asking.
func fresh(u string) string { return u + "&ask=" + strconv.FormatInt(askSeq.Add(1), 10) }

var askSeq atomic.Int64

// checkMemoRounds queries every program over every window three times —
// an evaluation, a store, a reuse — and holds every body to the
// reference byte for byte; the runtime-error program must answer the
// same 500 every time and store nothing. Each round asks under a fresh
// answer key, so it is the per-frame memos that answer, never a whole
// stored answer.
func checkMemoRounds(t *testing.T, s *tracesvc.Service, id string, open func() *interval.File, windows []string) {
	t.Helper()
	type query struct {
		program, window, want string
	}
	var qs []query
	for _, p := range memoPrograms {
		for _, w := range windows {
			want, err := expectStats(t, open, p, w)
			if err != nil {
				t.Fatalf("reference %s over %q: %v", p, w, err)
			}
			qs = append(qs, query{p, w, want})
		}
	}
	_, wantErr := expectStats(t, open, errProgram, windows[0])
	if wantErr == nil {
		t.Fatal("the runtime-error program ran clean")
	}
	answerHits := s.Cache().Stats().AnswerHits
	for round := 0; round < 3; round++ {
		for _, q := range qs {
			w := do(t, s, "GET", fresh(statsURL(id, q.program, q.window, "")), "")
			if w.Code != http.StatusOK || w.Body.String() != q.want {
				t.Fatalf("round %d, window %q, program %.60q: %d, body differs from a fresh GenerateOpts\n--- got ---\n%.600s\n--- want ---\n%.600s",
					round, q.window, q.program, w.Code, w.Body, q.want)
			}
		}
		stored := s.Cache().Stats().PartialsStored
		w := do(t, s, "GET", fresh(statsURL(id, errProgram, windows[0], "")), "")
		if w.Code != http.StatusInternalServerError || w.Body.String() != wantErr.Error()+"\n" {
			t.Fatalf("round %d: runtime-error program answered %d %q, want 500 %q", round, w.Code, w.Body, wantErr)
		}
		if got := s.Cache().Stats().PartialsStored; got != stored {
			t.Fatalf("round %d: a failing program stored %d partials", round, got-stored)
		}
	}
	if got := s.Cache().Stats().AnswerHits; got != answerHits {
		t.Fatalf("%d stored answers stood in for the per-frame memos", got-answerHits)
	}
}

type statsPlan struct {
	FramesEvaluated *int `json:"framesEvaluated"`
	PartialsReused  *int `json:"partialsReused"`
	FramesFetched   *int `json:"framesFetched"`
}

// planOf asks for the JSON form of a query and returns its plan fields.
func planOf(t *testing.T, s *tracesvc.Service, id, program, window string) (evaluated, reused, fetched int) {
	t.Helper()
	w := do(t, s, "GET", statsURL(id, program, window, "json"), "")
	var p statsPlan
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil || w.Code != http.StatusOK {
		t.Fatalf("json stats: %d %v %s", w.Code, err, w.Body)
	}
	if p.FramesEvaluated == nil || p.PartialsReused == nil || p.FramesFetched == nil {
		t.Fatalf("json stats lacks framesEvaluated/partialsReused/framesFetched: %s", w.Body)
	}
	return *p.FramesEvaluated, *p.PartialsReused, *p.FramesFetched
}

// TestStatsMemoDifferential is the memo's differential harness: random
// windows — frame-aligned, one frame's exact bounds, with zero-duration
// records on their edges, and none at all — over programs that key by
// bin(), by marker codes and by a concatenation, answered by a service
// that memoizes per-frame partials, each body byte-identical to
// stats.GenerateOpts on a freshly opened file, on the first, second and
// third asking alike.
func TestStatsMemoDifferential(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	open := func() *interval.File {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	frames := tr.Frames()
	if len(frames) < 20 {
		t.Fatalf("only %d frames", len(frames))
	}
	rng := xrand.New(28)
	for trial := 0; trial < 3; trial++ {
		checkMemoRounds(t, s, id, open, memoWindows(t, rng, frames))
	}
	if cs := s.Cache().Stats(); cs.PartialHits == 0 || cs.PartialsStored == 0 {
		t.Fatalf("the memo never stored or reused a partial: %+v", cs)
	}
}

// metricValue scrapes one sample from /metrics.
func metricValue(t *testing.T, s *tracesvc.Service, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(do(t, s, "GET", "/metrics", "").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

// TestFirstScanKeepsNoFrame: a whole-trace stats scan keeps no decoded
// frame. The predefined tables memoize a partial per frame, so their
// scans read frames only to compute partials: the first two decode every
// frame, and the third, its partials stored, reads none. A concatenation
// memoizes nothing, so each of its scans decodes every frame again and
// charges the memo no partial byte. Each scan has a fresh answer key: a
// stored whole answer would read no frame at all.
func TestFirstScanKeepsNoFrame(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		// Frames decoded after each scan, in multiples of the frame count.
		scans    [3]int
		memoized bool
	}{
		{"memoized", "bins=8", [3]int{1, 2, 2}, true},
		{"concatenation", "expr=" + url.QueryEscape(`table name=c x=("c", state + "!") y=("n", dura, count)`), [3]int{1, 2, 3}, false},
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
			if got := metricValue(t, s, "tracesvc_frames_decoded_total"); got != int64(want*n) {
				t.Fatalf("%s: after scan %d: %d frames decoded, want %d", tc.name, scan+1, got, want*n)
			}
		}
		if got := metricValue(t, s, "tracesvc_stats_partials_bytes_resident"); (got > 0) != tc.memoized {
			t.Fatalf("%s: %d partial bytes charged", tc.name, got)
		}
		s.Close()
	}
}

// TestStatsMemoPlan: on a fresh service, the first two askings of a
// query evaluate and fetch every frame (the second stores what the first
// only saw), and every later one evaluates and fetches only the frames
// the window cuts — a whole frame's partial is memoized, a cut frame's
// never — and reuses the partials of the frames inside it, while a
// concatenation never reuses. The marker-keyed program reuses too, which
// needs its marker codes to come out the same on every run. /metrics
// counts the same lookups and fetches, and tracesvc_frames_decoded_total
// the frames decoded: every fetch is a decode, so each memoized query
// decodes its whole frames in its first two askings and its cut frames
// in every asking, and the concatenation decodes its frames in every
// asking.
func TestStatsMemoPlan(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	frames := tr.Frames()
	lo, hi := frames[5].Start+1, frames[15].End-1
	window := fmt.Sprintf("%.9f:%.9f", lo.Seconds(), hi.Seconds())
	var edges, inside int
	for _, fe := range frames {
		switch {
		case fe.End < lo || fe.Start > hi:
		case fe.Start >= lo && fe.End <= hi:
			inside++
		default:
			edges++
		}
	}
	if edges == 0 || inside == 0 {
		t.Fatalf("window %s: %d edge frames, %d inside", window, edges, inside)
	}
	for _, tc := range []struct {
		program, window string
		cut, whole      int
		memoized        bool
	}{
		{memoPrograms[0], window, edges, inside, true},
		{memoPrograms[2], "", 0, len(frames), true},
		{memoPrograms[3], window, edges, inside, false},
	} {
		for ask := 1; ask <= 4; ask++ {
			wantEv, wantRe := tc.cut+tc.whole, 0
			if ask > 2 && tc.memoized {
				wantEv, wantRe = tc.cut, tc.whole
			}
			ev, re, fe := planOf(t, s, id, tc.program, tc.window)
			if ev != wantEv || re != wantRe || fe != wantEv {
				t.Fatalf("asking %d of %.40q over %q: evaluated %d, reused %d, fetched %d; want %d, %d and %d", ask, tc.program, tc.window, ev, re, fe, wantEv, wantRe, wantEv)
			}
		}
	}
	memoized := int64(inside + len(frames))
	// Two fetching askings of each memoized partial, four of each cut
	// frame and of the concatenation.
	fetched := 2*memoized + int64(4*edges+4*(edges+inside))
	for _, m := range []struct {
		name string
		want int64
	}{
		{`tracesvc_stats_partials_total{result="hit"}`, 2 * memoized},
		{`tracesvc_stats_partials_total{result="miss"}`, 2 * memoized},
		{`tracesvc_stats_partials_total{result="stored"}`, memoized},
		{"tracesvc_stats_frames_fetched_total", fetched},
		{"tracesvc_frames_decoded_total", fetched},
	} {
		if got := metricValue(t, s, m.name); got != m.want {
			t.Fatalf("%s = %d, want %d", m.name, got, m.want)
		}
	}
	if got := metricValue(t, s, "tracesvc_stats_partials_bytes_resident"); got <= 0 {
		t.Fatalf("tracesvc_stats_partials_bytes_resident = %d with %d partials stored", got, memoized)
	}
}

// exactWindow writes [lo, hi] the way a client would and checks that it
// survives the decimal round trip.
func exactWindow(t *testing.T, lo, hi clock.Time) string {
	t.Helper()
	w := fmt.Sprintf("%.9f:%.9f", lo.Seconds(), hi.Seconds())
	if plo, phi, err := clock.ParseWindow(w); err != nil || plo != lo || phi != hi {
		t.Fatalf("window %q round-trips to [%v .. %v], want [%v .. %v]", w, plo, phi, lo, hi)
	}
	return w
}

// TestWarmStatsFetchesNoEvictedFrame: once a windowed query's partials
// are stored — the cache keeps no decoded frame, only the few-KiB
// partials — the warm query reads no frame inside the window: the memo
// answers before any frame is fetched. It reads only the frames the
// window cuts, whose partials are never memoized.
func TestWarmStatsFetchesNoEvictedFrame(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	open := func() *interval.File {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	frames := tr.Frames()
	lo, hi := frames[5].Start+1, frames[15].End-1
	window := exactWindow(t, lo, hi)
	cut := 0
	for _, fe := range frames {
		if fe.End >= lo && fe.Start <= hi && (fe.Start < lo || fe.End > hi) {
			cut++
		}
	}
	if cut == 0 {
		t.Fatalf("window %s cuts no frame", window)
	}
	want, err := expectStats(t, open, memoPrograms[0], window)
	if err != nil {
		t.Fatal(err)
	}
	for ask := 1; ask <= 2; ask++ {
		if w := do(t, s, "GET", statsURL(id, memoPrograms[0], window, ""), ""); w.Code != http.StatusOK || w.Body.String() != want {
			t.Fatalf("asking %d: %d, body differs from a fresh GenerateOpts", ask, w.Code)
		}
	}
	if cs := s.Cache().Stats(); cs.PartialsStored == 0 {
		t.Fatal("no partial stored after two askings")
	}
	decoded := tr.File().DecodedFrames()
	if w := do(t, s, "GET", fresh(statsURL(id, memoPrograms[0], window, "")), ""); w.Code != http.StatusOK || w.Body.String() != want {
		t.Fatalf("warm asking: %d, body differs from a fresh GenerateOpts", w.Code)
	}
	if got := tr.File().DecodedFrames() - decoded; got != int64(cut) {
		t.Fatalf("a warm query over evicted frames decoded %d of them, want the %d the window cuts", got, cut)
	}
	if ev, re, fe := planOf(t, s, id, memoPrograms[0], window); ev != cut || fe != cut || re == 0 {
		t.Fatalf("warm plan: evaluated %d, reused %d, fetched %d; want %d cut frames evaluated and fetched", ev, re, fe, cut)
	}
}

// TestStatsMemoLiveGenerations re-asks every query across a live
// trace's seal generations: each generation moves the run bounds bin()
// reads, so a partial stored under one generation must never answer
// for the next.
func TestStatsMemoLiveGenerations(t *testing.T) {
	var sizes []int64
	path := writeMemoTrace(t, t.TempDir(), 3000, func(si interval.SealInfo) {
		if len(sizes) == 0 || si.Size > sizes[len(sizes)-1] {
			sizes = append(sizes, si.Size)
		}
	})
	if len(sizes) < 4 {
		t.Fatalf("only %d seals", len(sizes))
	}
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	prov := &sealedLive{path: path}
	id := s.Registry().AddLive(prov)
	rng := xrand.New(29)
	for _, size := range []int64{sizes[len(sizes)/3], sizes[len(sizes)/2], sizes[2*len(sizes)/3], sizes[len(sizes)-1]} {
		prov.publish(size)
		open := func() *interval.File {
			f, err := interval.Open(path, interval.WithLiveTail(size), interval.WithPyramid(false))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		tr, err := s.Registry().Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		checkMemoRounds(t, s, id, open, memoWindows(t, rng, tr.Frames()))
	}
}

// TestStatsMemoUnderEviction runs the harness through a cache far
// smaller than the partials and answers it asks for: they evict one
// another all the time, and every body still matches.
func TestStatsMemoUnderEviction(t *testing.T) {
	const budget = 1 << 16
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	open := func() *interval.File {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s := tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: 1})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	checkMemoRounds(t, s, id, open, memoWindows(t, xrand.New(30), tr.Frames()))
	cs := s.Cache().Stats()
	if cs.PartialsStored == 0 || cs.Evictions == 0 {
		t.Fatalf("no partial stored or no eviction under a %d-byte budget: %+v", budget, cs)
	}
	if cs.PartialBytes+cs.AnswerBytes > budget {
		t.Fatalf("cache holds %d partial and %d answer bytes, budget %d", cs.PartialBytes, cs.AnswerBytes, budget)
	}
}

// TestMemoSingleflightCancel: while one caller stores a frame's partial,
// a second caller of the same key waits for it — and, cancelled, stops
// waiting at once, while the store completes and serves the next
// caller. A caller whose own request ends mid-compute still stores. No
// goroutine outlives either.
func TestMemoSingleflightCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	c := tracesvc.NewFrameCache(1<<20, 1)
	const key = "k"
	var decodes atomic.Int64
	decode := func(*interval.Batch) error { decodes.Add(1); return nil }
	value := func(*interval.Batch, bool) (any, int64, error) { return "partial", 8, nil }
	if _, reused, err := c.Memo(context.Background(), 1, 0, key, decode, value); reused || err != nil {
		t.Fatalf("first lookup: reused %v, %v", reused, err)
	}

	computing, release := make(chan struct{}), make(chan struct{})
	storer, storerCancel := context.WithCancel(context.Background())
	stored := make(chan error, 1)
	go func() {
		_, _, err := c.Memo(storer, 1, 0, key, decode, func(b *interval.Batch, store bool) (any, int64, error) {
			if !store {
				return nil, 0, errors.New("the second evaluation must store")
			}
			close(computing)
			<-release
			return value(b, store)
		})
		stored <- err
	}()
	<-computing

	waiter, waiterCancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, _, err := c.Memo(waiter, 1, 0, key, decode, func(*interval.Batch, bool) (any, int64, error) {
			return nil, 0, errors.New("a waiter evaluated")
		})
		waited <- err
	}()
	// The sleep only makes it likely that the waiter is blocked when
	// cancelled; cancelled before it blocks, it must return the same way.
	time.Sleep(10 * time.Millisecond)
	waiterCancel()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled waiter kept waiting on the partial being stored")
	}

	storerCancel()
	close(release)
	if err := <-stored; err != nil {
		t.Fatalf("storer: %v", err)
	}
	v, reused, err := c.Memo(context.Background(), 1, 0, key, decode, func(*interval.Batch, bool) (any, int64, error) {
		return nil, 0, errors.New("a stored partial was evaluated again")
	})
	if v != "partial" || !reused || err != nil {
		t.Fatalf("after the store: %v, reused %v, %v", v, reused, err)
	}
	// Each of the two evaluations decoded the frame.
	if cs := c.Stats(); cs.PartialsStored != 1 || cs.PartialHits != 1 || decodes.Load() != 2 {
		t.Fatalf("%d decodes, counters %+v", decodes.Load(), cs)
	}
	testutil.SettleGoroutines(t, before)
}

// TestMemoEmptyKeyStoresNothing: Memo under the empty key memoizes
// nothing. Eight concurrent callers, each asking two frames in turn, get
// compute's value every time, computed over a fresh decode on every call
// with store false and never reported reused, and the cache's memo bytes
// and counters do not move. (An empty key taken for a memo key would be
// marked on the first call and stored on the second: the callers get a
// deadline.)
func TestMemoEmptyKeyStoresNothing(t *testing.T) {
	const callers, calls = 8, 20
	c := tracesvc.NewFrameCache(1<<20, 1)
	var decodes atomic.Int64
	decode := func(*interval.Batch) error { decodes.Add(1); return nil }
	const first, second = 0, 4096
	var computed, stored atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				off := int64(first)
				if i%2 == 1 {
					off = second
				}
				v, reused, err := c.Memo(context.Background(), 1, off, "", decode, func(b *interval.Batch, store bool) (any, int64, error) {
					computed.Add(1)
					if store {
						stored.Add(1)
					}
					return "value", 8, nil
				})
				if v != "value" || reused || err != nil {
					t.Errorf("frame at %d: %v, reused %v, %v", off, v, reused, err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the callers are still blocked after 10 s")
	}
	const n = callers * calls
	if computed.Load() != n || stored.Load() != 0 || decodes.Load() != n {
		t.Fatalf("%d calls computed %d times, %d of them storing, over %d decodes", n, computed.Load(), stored.Load(), decodes.Load())
	}
	if cs := c.Stats(); cs != (tracesvc.CacheStats{}) {
		t.Fatalf("the cache changed: %+v", cs)
	}
}

// TestNoGoroutineOutlivesStats: concurrent stats requests over the same
// windows — so they meet on the same frames' partials — some cut off by
// their own deadlines mid-run, answer either the right body or a clean
// 504, and once the service is closed no goroutine they started is left.
func TestNoGoroutineOutlivesStats(t *testing.T) {
	before := runtime.NumGoroutine()
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	s := tracesvc.New(tracesvc.Config{})
	id := openTrace(t, s, path)
	urls := []string{
		"/v1/traces/" + id + "/stats?bins=8",
		"/v1/traces/" + id + "/stats?bins=8&window=0.1:0.5",
	}
	want := make([]string, len(urls))
	for i, u := range urls {
		want[i] = do(t, s, "GET", u, "").Body.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				u := urls[(g+i)%len(urls)]
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(g%3)*time.Duration(i)*100*time.Microsecond)
				if g%3 == 0 {
					ctx, cancel = context.WithCancel(context.Background())
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("GET", u, nil).WithContext(ctx))
				cancel()
				switch {
				case w.Code == http.StatusOK && w.Body.String() == want[(g+i)%len(urls)]:
				case w.Code == http.StatusGatewayTimeout:
				default:
					t.Errorf("GET %s: %d %.200s", u, w.Code, w.Body)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	testutil.SettleGoroutines(t, before)
}
