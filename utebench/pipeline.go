package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// pipelineWorkload is pipeline_sppm_4x8: every batch stage, generate to
// visualize, once per lap.
type pipelineWorkload struct {
	b  *bench
	sh shape

	ref    *traceKit // setup's reference pass; laps must reproduce its merged file
	refSHA string
	laps   int
}

// batchQueries runs the analysis and rendering stages over a merged
// trace: predefined tables, time-resolved tables, the preview, and a
// time-space diagram of the middle 2 % of the run. It returns the
// predefined-tables stage's wall time.
func (b *bench) batchQueries(sp *span, k *traceKit, window string) (time.Duration, error) {
	tables, err := b.run(sp, "stats", "utestats", "-j", "1", k.merged)
	if err != nil {
		return 0, err
	}
	if _, err := b.run(sp, "stats", "utestats", "-j", "1", "-timeresolved", "-bins", "64", k.merged); err != nil {
		return 0, err
	}
	if _, err := b.run(sp, "render", "uteview", "-merged", k.merged, "-preview", "-bins", "512", "-o", filepath.Join(k.dir, "preview.svg")); err != nil {
		return 0, err
	}
	if _, err := b.run(sp, "render", "uteview", "-merged", k.merged, "-window", window, "-o", filepath.Join(k.dir, "diagram.svg")); err != nil {
		return 0, err
	}
	return tables.Wall, nil
}

// setup is one reference pass: it fixes the merged file every lap must
// reproduce byte for byte, validates it, and reads the run extent the
// diagram window comes from.
func (w *pipelineWorkload) setup(sp *span) error {
	b := w.b
	dir := filepath.Join(b.tmp, "pipeline-ref")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var err error
	if w.ref, err = b.buildKit(sp, w.sh, mergeOpts{slog: true, pyramid: true}, dir); err != nil {
		return err
	}
	if _, _, err = b.validate(sp, w.ref.merged); err != nil {
		return err
	}
	if err = b.runExtent(sp, w.ref); err != nil {
		return err
	}
	if _, err = b.batchQueries(sp, w.ref, w.ref.midWindow(0.02)); err != nil {
		return err
	}
	w.refSHA, err = sha256File(w.ref.merged)
	return err
}

func (w *pipelineWorkload) teardown() {
	if w.ref != nil {
		os.RemoveAll(w.ref.dir)
	}
}

func (w *pipelineWorkload) lap(sp *span) (lapSample, error) {
	b := w.b
	w.laps++
	dir := filepath.Join(b.tmp, fmt.Sprintf("pipeline-lap-%d", w.laps))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lapSample{}, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	k, err := b.buildKit(sp, w.sh, mergeOpts{slog: true, pyramid: true}, dir)
	if err != nil {
		return lapSample{}, err
	}
	q, err := b.batchQueries(sp, k, w.ref.midWindow(0.02))
	if err != nil {
		return lapSample{}, err
	}
	work := time.Since(t0)
	sum, err := sha256File(k.merged)
	b.check(err == nil && sum == w.refSHA, "lap %d: merged.ute differs from the reference pass", w.laps)
	return lapSample{work: work, lat: []time.Duration{work}, query: []time.Duration{q}}, nil
}

func (w *pipelineWorkload) units() float64 { return float64(w.ref.events) }
func (w *pipelineWorkload) bytesPerEvent() float64 {
	return float64(fileSize(w.ref.merged)+fileSize(w.ref.merged+".pyr")) / float64(w.ref.events)
}
func (w *pipelineWorkload) peakRSSMB() float64 { return float64(w.b.peakRSSKB.Load()) / 1024 }
func (w *pipelineWorkload) daemons() []*daemon { return nil }
func (w *pipelineWorkload) kit() *traceKit     { return w.ref }
