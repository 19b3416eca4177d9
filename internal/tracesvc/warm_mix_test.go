package tracesvc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// TestServeWarmMixHoldsNoFrame runs the ledger's serve mix in process:
// the predefined stats tables, a preview, the time-resolved tables and a
// record count, each over random windows whose bounds land on no
// base-cell bound of a trace with a sidecar, asked three times in a
// shuffled order. Every body is byte-identical to what a freshly opened
// file with no frame source answers, at Parallel 1 and 4 wherever a run
// takes a worker count. No decoded frame is ever resident — a frame read
// only to compute a memoized value, or to be counted or summarized at a
// window's edge, is admitted nowhere — and from the third asking on no
// request reads a frame at all: each is a stored answer.
func TestServeWarmMixHoldsNoFrame(t *testing.T) {
	const bins = 16
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
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
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	base := tr.File().Pyramid().BaseWidth
	first, last, _ := tr.Bounds()

	ref := open()
	defer ref.Close()
	recs, err := ref.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	type query struct{ url, want string }
	var qs []query
	// The time-resolved queries' windows, for the JSON asking at the end.
	type trQuery struct {
		url    string
		lo, hi clock.Time
	}
	var trs []trQuery
	rng := xrand.New(43)
	for k := 0; k < 6; k++ {
		lo := first + clock.Time(rng.Int63n(int64(last-first)/2))
		hi := lo + (last-lo)/8 + clock.Time(rng.Int63n(int64(last-lo)*7/8))
		if lo%base == 0 {
			lo++
		}
		if hi%base == 0 {
			hi--
		}
		window := exactWindow(t, lo, hi)

		want, err := expectStats(t, open, stats.Predefined(bins), window)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, query{fmt.Sprintf("/v1/traces/%s/stats?bins=%d&window=%s", id, bins, window), want})

		var trBodies [2]string
		for i, par := range []int{1, 4} {
			tables, err := stats.TimeResolved([]*interval.File{ref}, bins, interval.MapOptions{Parallel: par, Window: true, Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			for _, tb := range tables {
				fmt.Fprintf(&b, "# table %s\n%s\n", tb.Name, tb.TSV())
			}
			trBodies[i] = b.String()
		}
		if trBodies[0] != trBodies[1] {
			t.Fatalf("window %s: time-resolved tables differ between Parallel 1 and 4", window)
		}
		trURL := fmt.Sprintf("/v1/traces/%s/stats?timeresolved=1&bins=%d&window=%s", id, bins, window)
		qs = append(qs, query{trURL, trBodies[0]})
		trs = append(trs, trQuery{trURL, lo, hi})

		pv, err := render.BuildPreview(ref, render.PreviewOptions{Bins: bins, T0: lo, T1: hi})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, query{fmt.Sprintf("/v1/traces/%s/preview.svg?view=preview&bins=%d&window=%s", id, bins, window), render.PreviewSVG(pv.Preview)})

		n := 0
		for _, r := range recs {
			if r.End() >= lo && r.Start <= hi {
				n++
			}
		}
		cb, err := json.MarshalIndent(tracesvc.RecordCount{Count: n}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, query{fmt.Sprintf("/v1/traces/%s/records?count=1&window=%s", id, window), string(cb) + "\n"})
	}

	for ask := 1; ask <= 3; ask++ {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		decoded := tr.File().DecodedFrames()
		for _, q := range qs {
			w := do(t, s, "GET", q.url, "")
			if w.Code != http.StatusOK || w.Body.String() != q.want {
				t.Fatalf("asking %d of %s: %d, body differs from a fresh file's\n--- got ---\n%.600s\n--- want ---\n%.600s", ask, q.url, w.Code, w.Body, q.want)
			}
			if cs := s.Cache().Stats(); cs.Entries != 0 {
				t.Fatalf("asking %d of %s: %d decoded frames resident", ask, q.url, cs.Entries)
			}
		}
		if got := tr.File().DecodedFrames() - decoded; ask < 3 && got == 0 || ask == 3 && got != 0 {
			t.Fatalf("asking %d read %d frames", ask, got)
		}
	}

	// The JSON form is never memoized whole: its summary fetches exactly
	// the frames overlapping the window's edge remainders, whose reads
	// are memoized nowhere, and still keeps no frame resident.
	for _, q := range trs {
		want := testutil.RemainderFrames(t, tr.File(), q.lo, q.hi, bins)
		if want == 0 {
			t.Fatalf("%s: the window has no edge remainder", q.url)
		}
		var plan struct {
			FramesDecoded *int `json:"framesDecoded"`
		}
		w := do(t, s, "GET", q.url+"&format=json", "")
		if err := json.Unmarshal(w.Body.Bytes(), &plan); err != nil || w.Code != http.StatusOK {
			t.Fatalf("%s&format=json: %d %v", q.url, w.Code, err)
		}
		if plan.FramesDecoded == nil || *plan.FramesDecoded != want {
			t.Fatalf("%s&format=json: the summary fetched %v frames, want the %d overlapping its edge remainders", q.url, plan.FramesDecoded, want)
		}
		if cs := s.Cache().Stats(); cs.Entries != 0 {
			t.Fatalf("%s&format=json: %d decoded frames resident", q.url, cs.Entries)
		}
	}
}
