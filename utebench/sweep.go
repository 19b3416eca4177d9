package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// sweepWorkload is sweep_wide_216x4: one wide scenario-sweep cell whose
// merged trace is almost entirely frame-start pseudo-intervals, then a
// statistics query over the same trace as a file.
type sweepWorkload struct {
	b  *bench
	sh shape

	dir string
	k   *traceKit // the cell replayed through the file-based stages
}

func (w *sweepWorkload) setup(sp *span) error {
	b := w.b
	w.dir = filepath.Join(b.tmp, "sweep")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	var err error
	if w.k, err = b.buildKit(sp, w.sh, mergeOpts{}, w.dir); err != nil {
		return err
	}
	_, _, err = b.validate(sp, w.k.merged)
	return err
}

func (w *sweepWorkload) teardown() { os.RemoveAll(w.dir) }

// sweepCell runs one utesweep cell of sh and returns its wall time and
// the merged-record count the table reports.
func (b *bench) sweepCell(sp *span, sh shape) (procResult, int64, error) {
	res, err := b.run(sp, "sweep", "utesweep", sh.sweepArgs(b.seed)...)
	if err != nil {
		return res, 0, err
	}
	// stdout is the TSV table: a header line, then one row per cell.
	lines := bytes.Split(bytes.TrimSpace(res.Out), []byte("\n"))
	if len(lines) < 2 {
		return res, 0, fmt.Errorf("utesweep: no table row")
	}
	head, row := strings.Split(string(lines[0]), "\t"), strings.Split(string(lines[1]), "\t")
	for i, h := range head {
		if h == "records" && i < len(row) {
			n, err := strconv.ParseInt(row[i], 10, 64)
			return res, n, err
		}
	}
	return res, 0, fmt.Errorf("utesweep: no records column")
}

func (w *sweepWorkload) lap(sp *span) (lapSample, error) {
	b := w.b
	cell, records, err := b.sweepCell(sp, w.sh)
	if err != nil {
		return lapSample{}, err
	}
	b.check(records == w.k.records, "utesweep merged %d records, the file-based replay %d", records, w.k.records)
	q, err := b.run(sp, "stats", "utestats", "-j", "1", "-timeresolved", "-bins", "64", w.k.merged)
	if err != nil {
		return lapSample{}, err
	}
	return lapSample{work: cell.Wall, lat: []time.Duration{cell.Wall}, query: []time.Duration{q.Wall}}, nil
}

func (w *sweepWorkload) units() float64 { return float64(w.k.events) }
func (w *sweepWorkload) bytesPerEvent() float64 {
	return float64(fileSize(w.k.merged)) / float64(w.k.events)
}
func (w *sweepWorkload) peakRSSMB() float64 { return float64(w.b.peakRSSKB.Load()) / 1024 }
func (w *sweepWorkload) daemons() []*daemon { return nil }
func (w *sweepWorkload) kit() *traceKit     { return w.k }
