package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call into a layer as the harness sees it: a subprocess
// or an HTTP request, or a lap grouping them. Spans live in memory until
// the run ends; self time is the span minus what its children cover.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Lap    int                `json:"lap"` // -1 outside the measured laps
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	SelfNs int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`

	t *tracer
}

// tracer records spans when on. With tracing off every method is a
// no-op on a nil *span, so the measured path pays one nil check.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording; laps of a traced run alternate so the same
// run yields the tracing overhead.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) start(parent *span, name, layer string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Layer: layer, Lap: -1, Start: int64(time.Since(t.t0)), t: t}
	if parent != nil {
		s.Parent, s.Lap = parent.ID, parent.Lap
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.End = int64(time.Since(s.t.t0))
	s.t.mu.Unlock()
}

func (s *span) attr(k string, v float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[k] = v
	s.t.mu.Unlock()
}

// computeSelf fills SelfNs: duration minus the union of the children's
// intervals (concurrent requests overlap, so a plain sum would go
// negative).
func (t *tracer) computeSelf() {
	kids := make(map[int][]*span)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.SelfNs = (s.End - s.Start) - covered
	}
}

// lapShares returns each layer's share (percent) of the self time spent
// inside measured laps.
func (t *tracer) lapShares() map[string]float64 {
	t.computeSelf()
	by := make(map[string]float64)
	total := 0.0
	for _, s := range t.spans {
		if s.Lap < 0 {
			continue
		}
		by[s.Layer] += float64(s.SelfNs)
		total += float64(s.SelfNs)
	}
	for k := range by {
		by[k] = 100 * by[k] / total
	}
	return by
}

func (t *tracer) write(path string, meta any) error {
	t.computeSelf()
	b, err := json.MarshalIndent(struct {
		Meta  any     `json:"meta"`
		Spans []*span `json:"spans"`
	}{meta, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
