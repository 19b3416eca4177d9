package tracesvc_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/tracesvc"
)

// writeVecTrace writes n MPI_Waitall records, each with extras and a
// vector of its own, into many small frames, and returns its path.
func writeVecTrace(t *testing.T, dir string, n int) string {
	t.Helper()
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads:        []interval.ThreadEntry{{Task: 0, PID: 100, SysTID: 1, Type: events.ThreadMPI}},
	}
	path := filepath.Join(dir, "vec.ute")
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vec := make([]uint64, 3*(1+i%3))
		for k := range vec {
			vec[k] = uint64(i*10 + k)
		}
		r := interval.Record{
			Type:   events.EvMPIWaitall,
			Bebits: profile.Complete,
			Start:  clock.Time(i) * clock.Microsecond,
			Dura:   clock.Microsecond / 2,
			CPU:    uint16(i % 4),
			Extra:  []uint64{uint64(len(vec) / 3), uint64(0xa000 + i)},
			Vec:    vec,
		}
		if err := w.Add(&r); err != nil {
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

// TestRecordsPageAcrossFrames: a /records page's extras and vectors
// alias the batch their frame was decoded into, so a page spanning
// several frames must never decode one frame into the batch an earlier
// frame's records still point into. Pages of records carrying extras and
// vectors, each spanning at least two frames, windowed and not, asked
// three times (each at a fresh answer key), must be byte-identical to a
// reference built from a fresh ReadFrameBatch of every frame.
func TestRecordsPageAcrossFrames(t *testing.T) {
	path := writeVecTrace(t, t.TempDir(), 400)
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	frames := tr.Frames()
	if len(frames) < 8 {
		t.Fatalf("only %d frames", len(frames))
	}
	for _, tc := range []struct {
		window        string
		offset, limit int
	}{
		{"", int(frames[0].Records) / 2, 3 * int(frames[1].Records)},
		{fmt.Sprintf("%.9f:%.9f", ((frames[1].Start + frames[1].End) / 2).Seconds(), frames[6].End.Seconds()), 10, 2 * int(frames[2].Records)},
	} {
		lo, hi := clock.Time(0), clock.Time(1<<62)
		q := fmt.Sprintf("offset=%d&limit=%d", tc.offset, tc.limit)
		if tc.window != "" {
			var err error
			if lo, hi, err = clock.ParseWindow(tc.window); err != nil {
				t.Fatal(err)
			}
			q += "&window=" + tc.window
		}
		page := tracesvc.RecordsPage{Offset: tc.offset, Records: []tracesvc.RecordJSON{}}
		spans := 0
		for _, fe := range frames {
			b, err := tr.File().ReadFrameBatch(fe)
			if err != nil {
				t.Fatal(err)
			}
			had := len(page.Records)
			for i := 0; i < b.N; i++ {
				if b.End(i) < lo || b.Start[i] > hi {
					continue
				}
				if n := page.Total; n >= tc.offset && n-tc.offset < tc.limit {
					r := b.Row(i)
					page.Records = append(page.Records, tracesvc.RecordJSON{
						Type: r.Type.Name(), Bebits: r.Bebits.String(),
						StartNs: int64(r.Start), DuraNs: int64(r.Dura), EndNs: int64(r.End()),
						CPU: r.CPU, Node: r.Node, Thread: r.Thread, Extra: r.Extra, Vec: r.Vec,
					})
				}
				page.Total++
			}
			if len(page.Records) > had {
				spans++
			}
		}
		if spans < 2 || len(page.Records) != tc.limit {
			t.Fatalf("%s: the page holds %d records from %d frames; want %d from at least 2", q, len(page.Records), spans, tc.limit)
		}
		want, err := json.MarshalIndent(page, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		for ask := 1; ask <= 3; ask++ {
			w := do(t, s, "GET", fresh("/v1/traces/"+id+"/records?"+q), "")
			if w.Code != 200 || w.Body.String() != string(want) {
				t.Fatalf("%s, asking %d: %d, the page differs from the ReadFrameBatch reference:\n%.400s\nwant\n%.400s", q, ask, w.Code, w.Body, want)
			}
		}
	}
}
