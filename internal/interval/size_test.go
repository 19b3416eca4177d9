// Pipeline-level size comparison for the v4 compact encoding: the same
// records a real tracegen→convert run produces, written at v3 and v4.
// Lives in the external test package so it can import the converter.
package interval_test

import (
	"path/filepath"
	"testing"

	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// TestPipelineV4SizeReduction runs the simulator and converter, then
// re-encodes the converted records under header versions 3 and 4 with
// the default frame sizes. The compact encoding must shrink the file by
// at least 30% (the ledger's interval.bytes_per_record carries the
// absolute size of what the pipeline writes).
func TestPipelineV4SizeReduction(t *testing.T) {
	dir := t.TempDir()
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       2,
			CPUsPerNode: 1,
			Seed:        23,
			TraceOpts: trace.Options{
				Prefix:  filepath.Join(dir, "raw"),
				Enabled: events.MaskAll,
			},
		},
		TasksPerNode: 1,
	}
	w, err := mpisim.NewFiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(workload.Ring{Iters: 40, Bytes: 256}.Main())
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	rawPaths := []string{cfg.Cluster.TraceOpts.FileName(0), cfg.Cluster.TraceOpts.FileName(1)}
	outPaths := []string{filepath.Join(dir, "a.ute"), filepath.Join(dir, "b.ute")}
	if _, err := convert.ConvertAll(rawPaths, outPaths, convert.Options{}); err != nil {
		t.Fatal(err)
	}
	f, err := interval.Open(outPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 100 {
		t.Fatalf("pipeline produced only %d records", len(recs))
	}
	size := func(version uint32) int {
		hdr := f.Header
		hdr.HeaderVersion = version
		sb := interval.NewSeekBuffer()
		w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
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
		return len(sb.Bytes())
	}
	v3, v4 := size(3), size(4)
	t.Logf("pipeline records=%d v3=%dB v4=%dB (%.1f%%)", len(recs), v3, v4, 100*float64(v4)/float64(v3))
	if float64(v4) > 0.70*float64(v3) {
		t.Fatalf("v4 pipeline file is %dB, v3 is %dB: want at least 30%% smaller", v4, v3)
	}
}
