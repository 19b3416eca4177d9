package tracesvc_test

import (
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// sealedLive is a LiveProvider over a finished file that publishes its
// sealed prefixes one at a time, the way an ingest session's seals
// arrive: not ready until the first publish, one generation per publish.
type sealedLive struct {
	path string

	mu   sync.Mutex
	size int64
	gen  uint64
}

func (p *sealedLive) LiveInfo() (string, int64, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.path, p.size, p.gen, p.gen > 0
}

func (p *sealedLive) publish(size int64) {
	p.mu.Lock()
	p.size, p.gen = size, p.gen+1
	p.mu.Unlock()
}

// writeSealedTrace writes a trace and returns its path with the prefix
// length of every directory seal, the final one last.
func writeSealedTrace(t *testing.T, n int) (string, []int64) {
	t.Helper()
	var sizes []int64
	path := writeTraceSeals(t, t.TempDir(), n, func(si interval.SealInfo) {
		if len(sizes) == 0 || si.Size > sizes[len(sizes)-1] {
			sizes = append(sizes, si.Size)
		}
	})
	if len(sizes) < 4 {
		t.Fatalf("only %d seals; the test needs several generations", len(sizes))
	}
	return path, sizes
}

var framesDecodedRe = regexp.MustCompile(`(?m)^tracesvc_frames_decoded_total (\d+)$`)

func scrapeFramesDecoded(t *testing.T, s *tracesvc.Service) int64 {
	t.Helper()
	m := framesDecodedRe.FindStringSubmatch(do(t, s, "GET", "/metrics", "").Body.String())
	if m == nil {
		t.Fatal("/metrics lacks tracesvc_frames_decoded_total")
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// TestFramesDecodedCounterIsMonotone: tracesvc_frames_decoded_total is
// declared a counter, so it may never go down — not when a live trace
// moves to the snapshot of its next seal generation (whose file has read
// nothing yet), not when a trace is closed — and it ends at the number
// of frame payloads the files say were read from them.
func TestFramesDecodedCounterIsMonotone(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path, sizes := writeSealedTrace(t, 900)

	last := int64(0)
	scrape := func(when string) {
		t.Helper()
		got := scrapeFramesDecoded(t, s)
		if got < last {
			t.Fatalf("%s: tracesvc_frames_decoded_total went from %d to %d", when, last, got)
		}
		last = got
	}
	get := func(url string) {
		t.Helper()
		if w := do(t, s, "GET", url, ""); w.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
		}
	}
	files := map[*interval.File]bool{} // every snapshot file a query was served from
	hold := func(id string) {
		t.Helper()
		tr, err := s.Registry().Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		files[tr.File()] = true
	}

	prov := &sealedLive{path: path}
	live := s.Registry().AddLive(prov)
	gens := []int64{sizes[0], sizes[len(sizes)/3], sizes[2*len(sizes)/3], sizes[len(sizes)-1]}
	for g, size := range gens {
		prov.publish(size)
		// A metadata query resolves the new snapshot without a frame read.
		get("/v1/traces/" + live)
		hold(live)
		scrape(fmt.Sprintf("generation %d resolved", g+1))
		get("/v1/traces/" + live + "/records?limit=1")
		scrape(fmt.Sprintf("generation %d scanned", g+1))
	}
	if last == 0 {
		t.Fatal("four full scans of a live trace read no frame")
	}
	do(t, s, "DELETE", "/v1/traces/"+live, "")
	scrape("live trace closed")

	static := openTrace(t, s, path)
	hold(static)
	get("/v1/traces/" + static + "/records?limit=1")
	scrape("static trace scanned")
	do(t, s, "DELETE", "/v1/traces/"+static, "")
	scrape("static trace closed")

	var read int64
	for f := range files {
		read += f.DecodedFrames()
	}
	if last != read {
		t.Fatalf("tracesvc_frames_decoded_total ends at %d; the %d snapshot files read %d frame payloads", last, len(files), read)
	}
}

// TestRegistryOneEntryPath: a static and a live trace are the same kind
// of registry entry — Resolve, List, Len, Close and CloseAll treat them
// alike, a live trace that has not sealed anything is registered (Len)
// but not yet listable, and CloseAll closes it too.
func TestRegistryOneEntryPath(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	reg := s.Registry()
	path, sizes := writeSealedTrace(t, 600)

	static, err := reg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	prov := &sealedLive{path: path}
	live := reg.AddLive(prov)
	unsealed := reg.AddLive(&sealedLive{path: path})

	if reg.Len() != 3 {
		t.Fatalf("Len = %d, want 3", reg.Len())
	}
	if _, err := reg.Resolve(live); err == nil {
		t.Fatal("a live trace with no sealed data resolved")
	}
	if ts := reg.List(); len(ts) != 1 || ts[0] != static {
		t.Fatalf("List before the first seal = %v, want the static trace alone", ts)
	}

	prov.publish(sizes[1])
	lt, err := reg.Resolve(live)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := reg.Resolve(live); again != lt {
		t.Fatal("an unchanged generation resolved to a new snapshot")
	}
	if st, err := reg.Resolve(static.ID); err != nil || st != static {
		t.Fatalf("static Resolve = %v, %v", st, err)
	}
	if ts := reg.List(); len(ts) != 2 || ts[0] != static || ts[1] != lt {
		t.Fatalf("List = %v, want static then live", ts)
	}
	if len(lt.Frames()) == 0 || len(lt.Frames()) >= len(static.Frames()) {
		t.Fatalf("live snapshot has %d frames, the whole file %d", len(lt.Frames()), len(static.Frames()))
	}
	prov.publish(sizes[len(sizes)-1])
	if lt2, err := reg.Resolve(live); err != nil || len(lt2.Frames()) != len(static.Frames()) {
		t.Fatalf("final generation: %v, %v", lt2, err)
	}

	if !reg.Close(static.ID) || reg.Close(static.ID) {
		t.Fatal("Close(static) must succeed once")
	}
	if _, err := reg.Resolve(static.ID); err == nil {
		t.Fatal("closed static trace still resolves")
	}
	if _, err := static.File().ReadFrameBatch(static.Frames()[0]); err != interval.ErrClosed {
		t.Fatalf("frame read on a closed trace: %v, want ErrClosed", err)
	}

	reg.CloseAll()
	if reg.Len() != 0 {
		t.Fatalf("Len after CloseAll = %d (live %s, unsealed %s)", reg.Len(), live, unsealed)
	}
	if _, err := lt.File().ReadFrameBatch(lt.Frames()[0]); err != interval.ErrClosed {
		t.Fatalf("frame read on a closed live snapshot: %v, want ErrClosed", err)
	}
}
