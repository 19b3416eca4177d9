package interval_test

import (
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
)

// TestRepeatedEntriesAnswerAsTwin: codes are frame-local, never keys. A
// file whose every frame stores each dictionary entry twice answers the
// predefined tables, a time-resolved summary (the scan engine: neither
// file has a sidecar) and a preview with the same bytes as its
// deduplicated twin, serially and in parallel.
func TestRepeatedEntriesAnswerAsTwin(t *testing.T) {
	twin := interval.MixedTrace(t)
	answers := func(data []byte, par int) []string {
		f, err := interval.NewFile(interval.NewSeekBufferFrom(data))
		if err != nil {
			t.Fatal(err)
		}
		files := []*interval.File{f}
		var out []string
		tables, err := stats.GenerateOpts(stats.Predefined(16), files, interval.MapOptions{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := stats.TimeResolved(files, 24, interval.MapOptions{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range append(tables, tr...) {
			out = append(out, tb.Name+"\n"+tb.TSV())
		}
		pr, err := render.BuildPreview(f, render.PreviewOptions{Bins: 40})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Engine != "scan" {
			t.Fatalf("preview answered by %s", pr.Engine)
		}
		return append(out, render.PreviewSVG(pr.Preview))
	}
	rep := interval.RepeatDictionary(t, twin)
	for _, par := range []int{1, 3} {
		want, got := answers(twin, par), answers(rep, par)
		if len(got) != len(want) || len(want) != 9 {
			t.Fatalf("-j%d: %d answers, twin %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("-j%d: answer %d differs from the twin's:\n%s\nwant:\n%s", par, i, got[i], want[i])
			}
		}
	}
}
