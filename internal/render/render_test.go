package render_test

import (
	"encoding/json"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
)

// sppmish: 2 nodes × 2 CPUs, 1 task per node with one extra idle user
// thread, message exchange on the main thread — a miniature of the
// paper's Figure 8/9 setup.
var shape = testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 21}

func sppmish(p *mpisim.Proc) {
	p.Spawn(events.ThreadUser, func(q *mpisim.Proc) {
		// Worker thread: short compute bursts, then idle.
		for i := 0; i < 5; i++ {
			q.Compute(2 * clock.Millisecond)
			q.Sleep(2 * clock.Millisecond)
		}
	})
	peer := 1 - p.Rank()
	for i := 0; i < 20; i++ {
		p.Compute(clock.Millisecond)
		if p.Rank() == 0 {
			p.Send(peer, int32(i), 2048)
			p.Recv(int32(peer), int32(i))
		} else {
			p.Recv(int32(peer), int32(i))
			p.Send(peer, int32(i), 2048)
		}
	}
	p.Barrier()
}

func merged(t *testing.T) *interval.File {
	t.Helper()
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, sppmish)
	return mf
}

func TestThreadActivityView(t *testing.T) {
	d, err := render.BuildDiagram(merged(t), render.ThreadActivity, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes × 2 threads = 4 rows, pre-seeded from the thread table.
	if len(d.Rows) != 4 {
		t.Fatalf("rows: %d (%v)", len(d.Rows), labels(d))
	}
	// MPI states appear only on main threads; Running everywhere active.
	hasKey := func(k string) bool {
		for _, s := range d.Keys {
			if s == k {
				return true
			}
		}
		return false
	}
	if !hasKey("MPI_Send") || !hasKey("MPI_Recv") || !hasKey("Running") {
		t.Fatalf("keys: %v", d.Keys)
	}
	// Segments within a row must be time-ordered and non-overlapping.
	for _, row := range d.Rows {
		for i := 1; i < len(row.Segs); i++ {
			if row.Segs[i].Start < row.Segs[i-1].End {
				t.Fatalf("row %s: overlapping segs %v %v", row.Label, row.Segs[i-1], row.Segs[i])
			}
		}
	}
}

func TestProcessorActivityView(t *testing.T) {
	d, err := render.BuildDiagram(merged(t), render.ProcessorActivity, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if !strings.Contains(row.Label, "cpu") {
			t.Fatalf("row label %q", row.Label)
		}
	}
	if len(d.Rows) == 0 || len(d.Rows) > 4 {
		t.Fatalf("rows: %v", labels(d))
	}
}

func TestThreadProcessorViewShowsMigration(t *testing.T) {
	// Oversubscribed node: 3 busy threads on 2 CPUs with a short quantum
	// force migrations.
	sh := testutil.Shape{Nodes: 1, TasksPerNode: 1, CPUs: 2, Seed: 23, Quantum: int64(clock.Millisecond)}
	mf, _ := testutil.Pipeline(t, sh, merge.Options{}, func(p *mpisim.Proc) {
		for i := 0; i < 2; i++ {
			p.Spawn(events.ThreadUser, func(q *mpisim.Proc) {
				q.Compute(30 * clock.Millisecond)
			})
		}
		p.Compute(30 * clock.Millisecond)
	})
	d, err := render.BuildDiagram(mf, render.ThreadProcessor, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for _, n := range d.DistinctKeysPerRow() {
		if n > 1 {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatalf("no thread migrated across CPUs: keys/row %v", d.DistinctKeysPerRow())
	}
}

func TestProcessorThreadView(t *testing.T) {
	d, err := render.BuildDiagram(merged(t), render.ProcessorThread, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range d.Keys {
		if !strings.HasPrefix(k, "thread") {
			t.Fatalf("key %q", k)
		}
	}
}

func TestConnectedViewMergesPieces(t *testing.T) {
	// A blocking recv is split into pieces; the connected view must show
	// one segment per call, the pieces view several.
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 1, Seed: 29}
	work := func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Compute(20 * clock.Millisecond)
			p.Send(1, 1, 128)
		} else {
			p.Recv(0, 1)
		}
	}
	mf, _ := testutil.Pipeline(t, sh, merge.Options{}, work)
	pieces, err := render.BuildDiagram(mf, render.ThreadActivity, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mf2, _ := testutil.Pipeline(t, sh, merge.Options{}, work)
	conn, err := render.BuildDiagram(mf2, render.ThreadActivity, render.Options{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(d *render.Diagram, key string) (n int) {
		for _, row := range d.Rows {
			for _, s := range row.Segs {
				if s.Key == key {
					n++
				}
			}
		}
		return
	}
	if p, c := count(pieces, "MPI_Recv"), count(conn, "MPI_Recv"); c != 1 || p < 2 {
		t.Fatalf("recv segments: pieces=%d connected=%d", p, c)
	}
	// The connected segment must span the whole call.
	var span clock.Time
	for _, row := range conn.Rows {
		for _, s := range row.Segs {
			if s.Key == "MPI_Recv" {
				span = s.End - s.Start
			}
		}
	}
	if span < 19*clock.Millisecond {
		t.Fatalf("connected recv spans only %v", span)
	}
}

func TestWindowRestriction(t *testing.T) {
	mf := merged(t)
	full, _ := render.BuildDiagram(mf, render.ThreadActivity, render.Options{})
	mid := (full.T0 + full.T1) / 2
	mf2 := merged(t)
	win, err := render.BuildDiagram(mf2, render.ThreadActivity, render.Options{T0: mid, T1: full.T1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range win.Rows {
		for _, s := range row.Segs {
			if s.End <= mid {
				t.Fatalf("segment outside window: %+v", s)
			}
		}
	}
	nFull, nWin := 0, 0
	for _, r := range full.Rows {
		nFull += len(r.Segs)
	}
	for _, r := range win.Rows {
		nWin += len(r.Segs)
	}
	if nWin >= nFull {
		t.Fatalf("window did not reduce segments: %d vs %d", nWin, nFull)
	}
}

// slogOf builds the SLOG file of mf.
func slogOf(t *testing.T, mf *interval.File, opts slog.Options) *slog.File {
	t.Helper()
	sb := interval.NewSeekBuffer()
	if _, err := slog.Build(mf, sb, opts); err != nil {
		t.Fatal(err)
	}
	sf, err := slog.Read(sb)
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestArrowsMappedToRows(t *testing.T) {
	mf := merged(t)
	sf := slogOf(t, mf, slog.Options{})
	var arrows []slog.Arrow
	for i := range sf.Index {
		fd, _ := sf.ReadFrame(i)
		arrows = append(arrows, fd.Arrows...)
	}
	if len(arrows) == 0 {
		t.Fatal("no arrows")
	}
	d, err := render.BuildDiagram(mf, render.ThreadActivity, render.Options{Arrows: arrows})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Arrows) == 0 {
		t.Fatal("no arrows mapped")
	}
	for _, a := range d.Arrows {
		if a.FromRow == a.ToRow {
			t.Fatalf("arrow maps to one row: %+v", a)
		}
		if a.FromRow < 0 || a.FromRow >= len(d.Rows) || a.ToRow < 0 || a.ToRow >= len(d.Rows) {
			t.Fatalf("arrow row out of range: %+v", a)
		}
	}
}

func TestBusyFraction(t *testing.T) {
	d, _ := render.BuildDiagram(merged(t), render.ProcessorActivity, render.Options{})
	fr := d.BusyFraction()
	for i, f := range fr {
		if f < 0 || f > 1.000001 {
			t.Fatalf("row %d busy fraction %v", i, f)
		}
	}
	// CPU 1 on each node hosts only the worker thread: mostly idle.
	var anyLow bool
	for _, f := range fr {
		if f < 0.5 {
			anyLow = true
		}
	}
	if !anyLow {
		t.Fatalf("expected a mostly-idle CPU: %v", fr)
	}
}

func TestSVGWellFormed(t *testing.T) {
	d, _ := render.BuildDiagram(merged(t), render.ThreadActivity, render.Options{})
	svg := d.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("svg not well formed")
	}
	if strings.Count(svg, "<rect") < 10 {
		t.Fatal("suspiciously few rects")
	}
	for _, k := range d.Keys {
		if !strings.Contains(svg, k) {
			t.Fatalf("legend key %q missing", k)
		}
	}
}

func TestASCIIView(t *testing.T) {
	d, _ := render.BuildDiagram(merged(t), render.ThreadActivity, render.Options{})
	out := d.ASCII(80)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 4 rows + legend.
	if len(lines) != 6 {
		t.Fatalf("ascii lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[len(lines)-1], "legend:") {
		t.Fatalf("no legend: %q", lines[len(lines)-1])
	}
}

func TestPreviewRenderers(t *testing.T) {
	sf := slogOf(t, merged(t), slog.Options{})
	svg := render.PreviewSVG(sf.Preview)
	if !strings.Contains(svg, "preview") || strings.Count(svg, "<rect") < 10 {
		t.Fatal("preview svg too empty")
	}
	txt := render.PreviewASCII(sf.Preview, 40)
	if !strings.Contains(txt, "#") {
		t.Fatalf("preview ascii has no bars:\n%s", txt)
	}
	if got := strings.Count(txt, "\n"); got != 1+interval.DefaultBins { // header + one line per bin
		t.Fatalf("preview ascii lines: %d", got)
	}
}

func TestStatsRenderers(t *testing.T) {
	mf := merged(t)
	tables, err := stats.Generate(stats.Predefined(20), []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	heat := render.StatsHeatmapSVG(tables[0])
	if !strings.Contains(heat, "interesting_by_node_bin") || strings.Count(heat, "<rect") < 5 {
		t.Fatal("heatmap svg too empty")
	}
	bars := render.StatsBarsSVG(tables[1])
	if !strings.Contains(bars, "duration_by_state") || strings.Count(bars, "<rect") < 3 {
		t.Fatal("bars svg too empty")
	}
}

func TestParseView(t *testing.T) {
	for s, want := range map[string]render.ViewKind{
		"":                   render.ThreadActivity,
		"threads":            render.ThreadActivity,
		"thread-activity":    render.ThreadActivity,
		"cpus":               render.ProcessorActivity,
		"processor-activity": render.ProcessorActivity,
		"thread-processor":   render.ThreadProcessor,
		"processor-thread":   render.ProcessorThread,
	} {
		got, err := render.ParseView(s)
		if err != nil || got != want {
			t.Fatalf("ParseView(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := render.ParseView("nope"); err == nil {
		t.Fatal("bad view accepted")
	}
}

func labels(d *render.Diagram) []string {
	var ls []string
	for _, r := range d.Rows {
		ls = append(ls, r.Label)
	}
	return ls
}

func TestStateActivityView(t *testing.T) {
	d, err := render.BuildDiagram(merged(t), render.StateActivity, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, row := range d.Rows {
		labels[row.Label] = true
	}
	for _, want := range []string{"Running", "MPI_Send", "MPI_Recv"} {
		if !labels[want] {
			t.Fatalf("state row %q missing: %v", want, labels)
		}
	}
	// Keys are nodes.
	for _, k := range d.Keys {
		if !strings.HasPrefix(k, "node") {
			t.Fatalf("key %q", k)
		}
	}
	if kind, err := render.ParseView("states"); err != nil || kind != render.StateActivity {
		t.Fatalf("ParseView(states) = %v, %v", kind, err)
	}
	if !strings.Contains(d.SVG(), "state-activity view") {
		t.Fatal("svg title missing")
	}
}

func TestViewerHTML(t *testing.T) {
	sf := slogOf(t, merged(t), slog.Options{FrameBytes: 2048})
	html, err := render.ViewerHTML(sf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<!DOCTYPE html>", "const DATA = {", `"states":`, `"frames":`,
		"MPI_Send", "buildPreview()", "</html>",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("viewer html missing %q", want)
		}
	}
	// The embedded JSON must parse.
	start := strings.Index(html, "const DATA = ") + len("const DATA = ")
	end := strings.Index(html[start:], ";\n")
	var doc map[string]interface{}
	if err := jsonUnmarshal(html[start:start+end], &doc); err != nil {
		t.Fatalf("embedded JSON invalid: %v", err)
	}
	if doc["frames"] == nil || doc["states"] == nil || doc["threads"] == nil {
		t.Fatalf("embedded JSON incomplete: %v", doc)
	}
	// The page reads its bin starts from the ruler the preview was summed
	// by; it computes none of its own.
	starts, _ := doc["binstart"].([]interface{})
	if len(starts) != sf.Bins {
		t.Fatalf("page ships %d bin starts for %d bins", len(starts), sf.Bins)
	}
	for b, v := range starts {
		if lo, _ := sf.Preview.BinBounds(b); v != lo.Seconds() {
			t.Fatalf("bin %d starts at %v in the page, %v by the ruler", b, v, lo.Seconds())
		}
	}
}

func jsonUnmarshal(s string, v interface{}) error { return json.Unmarshal([]byte(s), v) }

func TestNestedDepthsInConnectedView(t *testing.T) {
	// Marker around MPI calls: in the connected view the marker segment
	// has depth 0 and the MPI segments nest at depth >= 1; the pieces
	// view keeps everything at depth 0.
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 1, Seed: 31}
	work := func(p *mpisim.Proc) {
		m := p.DefineMarker("outer")
		p.InMarker(m, func() {
			p.Compute(clock.Millisecond)
			p.Barrier()
			p.Compute(clock.Millisecond)
		})
	}
	mf, _ := testutil.Pipeline(t, sh, merge.Options{}, work)
	conn, err := render.BuildDiagram(mf, render.ThreadActivity, render.Options{Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	var runningDepth, markerDepth, barrierDepth = -1, -1, -1
	for _, row := range conn.Rows {
		for _, s := range row.Segs {
			switch s.Key {
			case "Running":
				runningDepth = s.Depth
			case "Marker":
				markerDepth = s.Depth
			case "MPI_Barrier":
				barrierDepth = s.Depth
			}
		}
	}
	// Nesting: Running (the default outer state) encloses the marker,
	// which encloses the barrier.
	if runningDepth != 0 {
		t.Fatalf("running depth %d, want 0", runningDepth)
	}
	if markerDepth != runningDepth+1 {
		t.Fatalf("marker depth %d, want %d", markerDepth, runningDepth+1)
	}
	if barrierDepth <= markerDepth {
		t.Fatalf("barrier depth %d, want > marker depth %d", barrierDepth, markerDepth)
	}
	mf2, _ := testutil.Pipeline(t, sh, merge.Options{}, work)
	pieces, _ := render.BuildDiagram(mf2, render.ThreadActivity, render.Options{})
	for _, row := range pieces.Rows {
		for _, s := range row.Segs {
			if s.Depth != 0 {
				t.Fatalf("pieces view has depth %d segment", s.Depth)
			}
		}
	}
	if !strings.Contains(conn.SVG(), "depth 1") {
		t.Fatal("nested depth missing from SVG titles")
	}
}
