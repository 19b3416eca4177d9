package tracesvc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/trace"
	"tracefw/internal/tracesvc"
	"tracefw/internal/workload"
	"tracefw/internal/xrand"
)

// ingestService builds a service with streaming ingest enabled.
func ingestService(t testing.TB, dir string, wopts interval.WriterOptions) *tracesvc.Service {
	t.Helper()
	s := tracesvc.New(tracesvc.Config{})
	m, err := ingest.NewManager(ingest.Config{Dir: dir, Writer: wopts, QueueRecords: 128})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIngest(m)
	return s
}

// doBytes is do() for raw (non-string) bodies.
func doBytes(t testing.TB, s *tracesvc.Service, method, url string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(method, url, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// ingestRaws generates a random workload's per-node raw traces.
func ingestRaws(t testing.TB, seed uint64, nodes, steps int) [][]byte {
	t.Helper()
	drifts := make([]float64, nodes)
	for i := range drifts {
		drifts[i] = float64(i-1) * 25e-6
	}
	raws, _, err := core.Generate(core.Config{
		Nodes: nodes, CPUsPerNode: 2, TasksPerNode: 2, Seed: seed, Drifts: drifts,
	}, workload.Random{Seed: seed, Steps: steps}.Main())
	if err != nil {
		t.Fatal(err)
	}
	return raws
}

// rawPreambleCut finds the end of the last table-defining record.
func rawPreambleCut(t testing.TB, raw []byte) int {
	t.Helper()
	off := convert.RawHeaderSize
	cut := off
	for off < len(raw) {
		rec, n, err := trace.Decode(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		if rec.Type == events.EvThreadInfo || rec.Type == events.EvMarkerDefine {
			cut = off
		}
	}
	return cut
}

// recordKey is the order-defining view of a record used to compare live
// snapshots against the batch reference.
type recordKey struct {
	Type    string
	StartNs int64
	DuraNs  int64
	Node    uint16
	Thread  uint16
	CPU     uint16
}

// TestIngestHTTPConcurrent is the serving-layer race and byte-identity
// proof: N goroutine "nodes" post interleaved batches over the real
// HTTP surface while reader goroutines continuously query the live tail
// (stats, records, previews). When the dust settles, the sealed file is
// byte-identical to the sequential convert→merge pipeline, the HTTP
// stats/preview bodies are byte-identical to a service serving the
// reference file, and every mid-flight records response was an exact
// prefix of the reference. Run it under -race.
func TestIngestHTTPConcurrent(t *testing.T) {
	const nodes = 3
	raws := ingestRaws(t, 23, nodes, 60)
	wopts := interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2}

	// Batch-pipeline reference, and a second service serving it.
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{
		Writer: interval.WriterOptions{FrameBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		if files[i], err = interval.NewFile(sb); err != nil {
			t.Fatal(err)
		}
	}
	msb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, msb, merge.Options{
		Estimator: merge.EstimatorNone, Writer: wopts, Parallel: 1,
	}); err != nil {
		t.Fatal(err)
	}
	want := msb.Bytes()
	refDir := t.TempDir()
	refPath := refDir + "/ref.ute"
	if err := os.WriteFile(refPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	refSvc := tracesvc.New(tracesvc.Config{})
	defer refSvc.Close()
	refID := openTrace(t, refSvc, refPath)
	wf, err := interval.NewFile(interval.NewSeekBufferFrom(want))
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := wf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := make([]recordKey, len(wantRecs))
	for i := range wantRecs {
		r := &wantRecs[i]
		wantKeys[i] = recordKey{r.Type.Name(), int64(r.Start), int64(r.Dura), r.Node, r.Thread, r.CPU}
	}

	// The live service.
	s := ingestService(t, t.TempDir(), wopts)
	defer s.Close()
	w := doBytes(t, s, "POST", "/v1/ingest/run?op=begin&nodes=3", nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("begin: %d %s", w.Code, w.Body)
	}
	var began struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &began); err != nil || began.ID == "" {
		t.Fatalf("begin response %q: %v", w.Body, err)
	}
	id := began.ID

	// Writers: one goroutine per node posting random-size batches.
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(500 + uint64(i))
			raw := raws[i]
			cut := rawPreambleCut(t, raw)
			batches := [][]byte{raw[:cut]}
			rest := raw[cut:]
			for len(rest) > 0 {
				n := 1 + rng.Intn(1500)
				if n > len(rest) {
					n = len(rest)
				}
				batches = append(batches, rest[:n])
				rest = rest[n:]
			}
			for seq, b := range batches {
				url := fmt.Sprintf("/v1/ingest/run?node=%d&seq=%d", i, seq)
				if seq == len(batches)-1 {
					url += "&last=1"
				}
				if w := doBytes(t, s, "POST", url, b); w.Code != http.StatusAccepted {
					t.Errorf("node %d seq %d: %d %s", i, seq, w.Code, w.Body)
					return
				}
			}
		}(i)
	}

	// Readers: hammer the live tail until the writers finish. Snapshot
	// resolution may race the first seal (503) — everything else must
	// succeed, and every records body must be a reference prefix.
	stop := make(chan struct{})
	var liveReads, prefixChecks atomic.Int64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := doBytes(t, s, "GET", "/v1/traces/"+id+"/records?limit=100000", nil)
				switch w.Code {
				case http.StatusServiceUnavailable:
					continue // no sealed data yet, or a retired snapshot
				case http.StatusOK:
				default:
					t.Errorf("reader %d: records: %d %s", r, w.Code, w.Body)
					return
				}
				liveReads.Add(1)
				var page struct {
					Total   int `json:"total"`
					Records []struct {
						Type    string `json:"type"`
						StartNs int64  `json:"startNs"`
						DuraNs  int64  `json:"duraNs"`
						CPU     uint16 `json:"cpu"`
						Node    uint16 `json:"node"`
						Thread  uint16 `json:"thread"`
					} `json:"records"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if page.Total > len(wantKeys) {
					t.Errorf("live tail has %d records, reference only %d", page.Total, len(wantKeys))
					return
				}
				for i, rec := range page.Records {
					got := recordKey{rec.Type, rec.StartNs, rec.DuraNs, rec.Node, rec.Thread, rec.CPU}
					if got != wantKeys[i] {
						t.Errorf("live record %d = %+v, reference %+v", i, got, wantKeys[i])
						return
					}
				}
				prefixChecks.Add(1)
				// Exercise the other read paths for the race detector.
				doBytes(t, s, "GET", "/v1/traces/"+id+"/stats?bins=8", nil)
				doBytes(t, s, "GET", "/v1/traces/"+id+"/preview.svg?view=preview&bins=8", nil)
				doBytes(t, s, "GET", "/v1/ingest/run", nil)
			}
		}(r)
	}
	wg.Wait()
	sess, ok := s.IngestManager().Get("run")
	if !ok {
		t.Fatal("session vanished")
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}
	if prefixChecks.Load() == 0 {
		// On a slow box the whole ingest can finish before any reader
		// lands a 200; the prefix property still must hold, now over the
		// complete trace.
		w := doBytes(t, s, "GET", "/v1/traces/"+id+"/records?limit=100000", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("post-ingest records read: %d %s", w.Code, w.Body)
		}
		var page struct {
			Records []struct {
				Type    string `json:"type"`
				StartNs int64  `json:"startNs"`
				DuraNs  int64  `json:"duraNs"`
				CPU     uint16 `json:"cpu"`
				Node    uint16 `json:"node"`
				Thread  uint16 `json:"thread"`
			} `json:"records"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Records) != len(wantKeys) {
			t.Fatalf("post-ingest read: %d records, reference %d", len(page.Records), len(wantKeys))
		}
		for i, rec := range page.Records {
			got := recordKey{rec.Type, rec.StartNs, rec.DuraNs, rec.Node, rec.Thread, rec.CPU}
			if got != wantKeys[i] {
				t.Fatalf("post-ingest record %d = %+v, reference %+v", i, got, wantKeys[i])
			}
		}
	}

	// Final file: byte-identical to the batch pipeline.
	got, err := os.ReadFile(sess.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ingested file differs from batch pipeline (%d vs %d bytes)", len(got), len(want))
	}

	// HTTP bodies over the finished live trace are byte-identical to the
	// reference service's.
	for _, q := range []string{"/stats?bins=16", "/records?limit=50", "/preview.svg?view=preview&bins=12"} {
		lw := doBytes(t, s, "GET", "/v1/traces/"+id+q, nil)
		rw := doBytes(t, refSvc, "GET", "/v1/traces/"+refID+q, nil)
		if lw.Code != 200 || rw.Code != 200 {
			t.Fatalf("%s: live %d, reference %d", q, lw.Code, rw.Code)
		}
		if !bytes.Equal(lw.Body.Bytes(), rw.Body.Bytes()) {
			t.Fatalf("%s: live body differs from reference service", q)
		}
	}

	// Session status reports completion.
	w = doBytes(t, s, "GET", "/v1/ingest/run", nil)
	var status struct {
		State string `json:"state"`
		Final bool   `json:"final"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || !status.Final {
		t.Fatalf("final status: %s", w.Body)
	}
	// Ingest metrics are exported.
	mw := doBytes(t, s, "GET", "/metrics", nil)
	for _, metric := range []string{
		"tracesvc_ingest_sessions_done_total 1",
		"tracesvc_ingest_seals_total",
		"tracesvc_ingest_records_total",
	} {
		if !bytes.Contains(mw.Body.Bytes(), []byte(metric)) {
			t.Fatalf("/metrics missing %q:\n%s", metric, mw.Body)
		}
	}
}

// TestIngestHTTPErrors: the endpoint's error paths map to the
// documented statuses.
func TestIngestHTTPErrors(t *testing.T) {
	// Disabled service: 403 everywhere.
	off := tracesvc.New(tracesvc.Config{})
	defer off.Close()
	if w := doBytes(t, off, "POST", "/v1/ingest/x?op=begin&nodes=1", nil); w.Code != http.StatusForbidden {
		t.Fatalf("disabled begin: %d", w.Code)
	}
	if w := doBytes(t, off, "GET", "/v1/ingest", nil); w.Code != http.StatusForbidden {
		t.Fatalf("disabled list: %d", w.Code)
	}

	dir := t.TempDir()
	m, err := ingest.NewManager(ingest.Config{Dir: dir, MaxBatchBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	s.EnableIngest(m)

	cases := []struct {
		method, url string
		body        []byte
		code        int
	}{
		{"POST", "/v1/ingest/bad..%2Fname?op=begin&nodes=1", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/.hidden?op=begin&nodes=1", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?op=begin&nodes=0", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?op=begin&nodes=junk", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?op=begin&nodes=1&framebytes=-1", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?op=begin&nodes=1", nil, http.StatusCreated},
		{"POST", "/v1/ingest/ok?op=begin&nodes=1", nil, http.StatusConflict},
		{"POST", "/v1/ingest/ok?op=weird", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?node=junk&seq=0", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?node=0&seq=junk", nil, http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?node=5&seq=0", []byte("x"), http.StatusBadRequest},
		{"POST", "/v1/ingest/ok?node=0&seq=0", make([]byte, 5000), http.StatusRequestEntityTooLarge},
		{"POST", "/v1/ingest/ok?node=0&seq=90", []byte("x"), http.StatusConflict},
		{"POST", "/v1/ingest/missing?node=0&seq=0", []byte("x"), http.StatusNotFound},
		{"GET", "/v1/ingest/missing", nil, http.StatusNotFound},
		{"POST", "/v1/ingest/missing?op=abort", nil, http.StatusNotFound},
		{"GET", "/v1/ingest/ok", nil, http.StatusOK},
		{"POST", "/v1/ingest/ok?op=abort", nil, http.StatusOK},
	}
	for _, c := range cases {
		if w := doBytes(t, s, c.method, c.url, c.body); w.Code != c.code {
			t.Fatalf("%s %s: got %d want %d (%s)", c.method, c.url, w.Code, c.code, w.Body)
		}
	}
	// A live trace with no sealed data resolves to 503.
	if w := doBytes(t, s, "POST", "/v1/ingest/empty?op=begin&nodes=1", nil); w.Code != http.StatusCreated {
		t.Fatal("begin empty")
	}
	var began struct {
		ID string `json:"id"`
	}
	json.Unmarshal(doBytes(t, s, "GET", "/v1/ingest/empty", nil).Body.Bytes(), &began)
	if began.ID == "" {
		t.Fatal("no registry id for live trace")
	}
	if w := doBytes(t, s, "GET", "/v1/traces/"+began.ID+"/stats", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unready live trace: %d %s", w.Code, w.Body)
	}
}

// TestDeleteReleasesSettledSession: deleting a finished live trace also
// drops its ingest session — it no longer lists, and its name can begin
// a new session, whose file is again the same bytes — while deleting a
// trace whose session is still gathering leaves the session running and
// its name taken.
func TestDeleteReleasesSettledSession(t *testing.T) {
	raws := ingestRaws(t, 31, 2, 20)
	s := ingestService(t, t.TempDir(), interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2})
	defer s.Close()
	begin := func(name string) string {
		t.Helper()
		w := doBytes(t, s, "POST", "/v1/ingest/"+name+"?op=begin&nodes=2", nil)
		var began struct {
			ID string `json:"id"`
		}
		if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &began) != nil || began.ID == "" {
			t.Fatalf("begin %s: %d %s", name, w.Code, w.Body)
		}
		return began.ID
	}
	ingestAll := func(name string) []byte {
		t.Helper()
		for i, raw := range raws {
			cut := rawPreambleCut(t, raw)
			for seq, part := range [][]byte{raw[:cut], raw[cut:]} {
				url := fmt.Sprintf("/v1/ingest/%s?node=%d&seq=%d", name, i, seq)
				if seq == 1 {
					url += "&last=1"
				}
				if w := doBytes(t, s, "POST", url, part); w.Code != http.StatusAccepted {
					t.Fatalf("%s node %d seq %d: %d %s", name, i, seq, w.Code, w.Body)
				}
			}
		}
		sess, ok := s.IngestManager().Get(name)
		if !ok {
			t.Fatalf("no session %s", name)
		}
		if err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(sess.Path())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	id := begin("run")
	first := ingestAll("run")
	if w := doBytes(t, s, "DELETE", "/v1/traces/"+id, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}
	if w := doBytes(t, s, "GET", "/v1/ingest/run", nil); w.Code != http.StatusNotFound {
		t.Fatalf("status of a deleted finished session: %d %s", w.Code, w.Body)
	}
	if _, ok := s.IngestManager().Get("run"); ok {
		t.Fatal("the manager still holds a deleted finished session")
	}
	if id2 := begin("run"); id2 == id {
		t.Fatalf("a new session under the same name reused trace id %s", id)
	}
	if again := ingestAll("run"); !bytes.Equal(again, first) {
		t.Fatalf("the second ingest under the same name wrote %d bytes, the first %d", len(again), len(first))
	}

	// A session still gathering preambles outlives its trace's delete.
	id = begin("live")
	if w := doBytes(t, s, "POST", "/v1/ingest/live?node=0&seq=0", raws[0][:rawPreambleCut(t, raws[0])]); w.Code != http.StatusAccepted {
		t.Fatalf("preamble: %d %s", w.Code, w.Body)
	}
	if w := doBytes(t, s, "DELETE", "/v1/traces/"+id, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete of an active trace: %d %s", w.Code, w.Body)
	}
	if w := doBytes(t, s, "GET", "/v1/ingest/live", nil); w.Code != http.StatusOK {
		t.Fatalf("status of an active session after its trace's delete: %d %s", w.Code, w.Body)
	}
	if w := doBytes(t, s, "POST", "/v1/ingest/live?op=begin&nodes=2", nil); w.Code != http.StatusConflict {
		t.Fatalf("begin over an active session: %d %s", w.Code, w.Body)
	}
}

// countingBody is a request body that counts the bytes read from it.
type countingBody struct {
	r    io.Reader
	read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *countingBody) Close() error { return nil }

// TestIngestHTTPOversizeBatch: a batch whose declared Content-Length is
// over the limit is refused with 413 before a byte of it is read; one
// sent chunked is refused once its limit+1st byte arrives, having read
// no further; neither touches the session, which goes on to accept every
// batch of its stream, declared and chunked, into a file byte-identical
// to convert→merge.
func TestIngestHTTPOversizeBatch(t *testing.T) {
	const limit = 4096
	raws := ingestRaws(t, 37, 1, 30)
	wopts := interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2}
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{Writer: interval.WriterOptions{FrameBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := interval.NewFile(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	ref := interval.NewSeekBuffer()
	if _, err := merge.Merge([]*interval.File{in}, ref, merge.Options{
		Estimator: merge.EstimatorNone, Writer: wopts, Parallel: 1,
	}); err != nil {
		t.Fatal(err)
	}

	m, err := ingest.NewManager(ingest.Config{Dir: t.TempDir(), MaxBatchBytes: limit, Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	s.EnableIngest(m)
	if w := doBytes(t, s, "POST", "/v1/ingest/big?op=begin&nodes=1", nil); w.Code != http.StatusCreated {
		t.Fatalf("begin: %d %s", w.Code, w.Body)
	}
	post := func(url string, body []byte, declared int64) (int, int) {
		t.Helper()
		b := &countingBody{r: bytes.NewReader(body)}
		r := httptest.NewRequest("POST", url, b)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code, b.read
	}

	raw := raws[0]
	cut := rawPreambleCut(t, raw)
	batches := [][]byte{raw[:cut]}
	for rest := raw[cut:]; len(rest) > 0; {
		n := min(len(rest), 3000)
		batches, rest = append(batches, rest[:n]), rest[n:]
	}
	if len(batches) < 4 {
		t.Fatalf("only %d batches", len(batches))
	}
	junk := make([]byte, 3*limit)
	for seq, b := range batches {
		url := fmt.Sprintf("/v1/ingest/big?node=0&seq=%d", seq)
		if seq == len(batches)-1 {
			url += "&last=1"
		}
		if seq%2 == 0 {
			if code, read := post(url, junk, int64(len(junk))); code != http.StatusRequestEntityTooLarge || read != 0 {
				t.Fatalf("seq %d: declared %d bytes: %d after reading %d bytes", seq, len(junk), code, read)
			}
		} else {
			if code, read := post(url, junk, -1); code != http.StatusRequestEntityTooLarge || read > limit+1 {
				t.Fatalf("seq %d: chunked %d bytes: %d after reading %d bytes", seq, len(junk), code, read)
			}
		}
		declared := int64(len(b))
		if seq%3 == 1 {
			declared = -1 // sent chunked
		}
		if code, read := post(url, b, declared); code != http.StatusAccepted || read != len(b) {
			t.Fatalf("seq %d: %d bytes: %d after reading %d", seq, len(b), code, read)
		}
	}
	sess, ok := s.IngestManager().Get("big")
	if !ok {
		t.Fatal("no session")
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sess.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("ingested file differs from convert→merge (%d vs %d bytes)", len(got), ref.Len())
	}
	if st := m.Stats(); st.Batches != int64(len(batches)) {
		t.Fatalf("%d batches counted, %d accepted", st.Batches, len(batches))
	}
}
