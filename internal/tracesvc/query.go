package tracesvc

import (
	"net/url"
	"strconv"
	"strings"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
)

// Query is one request's parameters, parsed once: every handler reads
// them from here, the router routes and splits by them, and the answer
// memo keys by their one spelling, Encode. An endpoint's parameters are
// the only ones parsed (get and frames take none); any other is ignored,
// so a request spelt differently, or with a parameter nothing reads,
// names the same Query.
type Query struct {
	// Endpoint is the registered endpoint name: get, frames, stats,
	// records or preview.
	Endpoint string
	// Window says a window was given; Lo and Hi are its bounds, an open
	// side the extreme Time.
	Window bool
	Lo, Hi clock.Time
	// Bins is the bin count: of the time-resolved tables and the
	// predefined program's bin() on /stats (interval.DefaultBins when not
	// given), of a view=preview histogram (0 for its default).
	Bins int
	// Program is /stats's expr, "" for the predefined tables.
	Program string
	// TimeResolved (timeresolved=1) asks /stats for the time-resolved
	// tables; JSON (format=json) for its JSON form.
	TimeResolved, JSON bool
	// Preview (view=preview) asks /preview.svg for the histogram, else
	// View names the diagram and Connected (connected=1) nests it.
	Preview, Connected bool
	View               render.ViewKind
	// Count (count=1) asks /records for the total alone, with Offset and
	// Limit 0; otherwise they select the page.
	Count         bool
	Offset, Limit int
	// Frames (frames=lo:hi) restricts /records to the frame-index range
	// [FrameLo, FrameHi).
	Frames           bool
	FrameLo, FrameHi int
}

// ParseQuery parses the parameters endpoint reads from v, checking them
// in the order the handler always has, and answers a malformed one with
// its 400. A frame range is checked against the trace's frame count by
// the handler.
func ParseQuery(endpoint string, v url.Values) (q Query, err error) {
	q.Endpoint = endpoint
	switch endpoint {
	case "stats":
		q.TimeResolved, q.Program, q.JSON = v.Get("timeresolved") == "1", v.Get("expr"), v.Get("format") == "json"
		if q.Bins, err = parseBins(v, interval.DefaultBins); err != nil {
			return q, err
		}
		if err = q.parseWindow(v); err == nil && q.TimeResolved && q.Program != "" {
			err = badRequest("timeresolved=1 does not take an expr")
		}
	case "records":
		q.Count = v.Get("count") == "1"
		if q.Limit, err = atLeast(v, "limit", 1000, 1); err != nil {
			return q, err
		}
		if q.Offset, err = atLeast(v, "offset", 0, 0); err != nil {
			return q, err
		}
		err = q.parseWindow(v)
		if fr := v.Get("frames"); err == nil && fr != "" {
			lo, hi, ok := strings.Cut(fr, ":")
			if q.FrameLo, err = strconv.Atoi(lo); err == nil {
				q.FrameHi, err = strconv.Atoi(hi)
			}
			if !ok || err != nil || q.FrameLo < 0 || q.FrameHi < q.FrameLo {
				return q, badRequest("bad frames %q", fr)
			}
			q.Frames = true
		}
		if q.Count {
			q.Offset, q.Limit = 0, 0
		}
	case "preview":
		if err = q.parseWindow(v); err != nil {
			return q, err
		}
		q.Preview = v.Get("view") == "preview"
		q.Connected = !q.Preview && v.Get("connected") == "1"
		if q.Preview {
			q.Bins, err = parseBins(v, 0)
		} else if q.View, err = render.ParseView(v.Get("view")); err != nil {
			err = badRequest("%v", err)
		}
	}
	return q, err
}

// atLeast reads the integer parameter name, def when absent, and answers
// a 400 when it is malformed or below min.
func atLeast(v url.Values, name string, def, min int) (int, error) {
	s := v.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < min {
		return 0, badRequest("bad %s %q", name, s)
	}
	return n, nil
}

// parseWindow reads the optional window=lo:hi (seconds, either side may
// be empty — the same syntax the CLIs accept).
func (q *Query) parseWindow(v url.Values) error {
	w := v.Get("window")
	if w == "" {
		return nil
	}
	lo, hi, err := clock.ParseWindow(w)
	if err != nil {
		return badRequest("bad window: %v", err)
	}
	q.Window, q.Lo, q.Hi = true, lo, hi
	return nil
}

// parseBins reads bins=N, def when absent, capped at stats.MaxBins.
// That alone does not bound a request: every type and busy lane a
// summary meets costs a row N bins wide, so the summary itself stops at
// interval.MaxSummaryCells and the request answers 400 (summaryErr).
func parseBins(v url.Values, def int) (int, error) {
	bs := v.Get("bins")
	if bs == "" {
		return def, nil
	}
	bins, err := strconv.Atoi(bs)
	if err != nil || bins < 1 || bins > stats.MaxBins {
		return 0, badRequest("bad bins %q (1 to %d)", bs, stats.MaxBins)
	}
	return bins, nil
}

// Encode is q's one spelling, which ParseQuery reads back as q: the
// parameters that differ from their zero value, each written one way, in
// name order.
func (q Query) Encode() string { return string(q.appendEncoded(nil)) }

// appendEncoded appends Encode's spelling to b.
func (q Query) appendEncoded(b []byte) []byte {
	sep := ""
	set := func(given bool, name, value string) {
		if given {
			b = append(append(append(append(b, sep...), name...), '='), url.QueryEscape(value)...)
			sep = "&"
		}
	}
	set(q.Bins != 0, "bins", strconv.Itoa(q.Bins))
	set(q.Connected, "connected", "1")
	set(q.Count, "count", "1")
	set(q.Program != "", "expr", q.Program)
	set(q.JSON, "format", "json")
	set(q.Frames, "frames", strconv.Itoa(q.FrameLo)+":"+strconv.Itoa(q.FrameHi))
	set(q.Limit != 0, "limit", strconv.Itoa(q.Limit))
	set(q.Offset != 0, "offset", strconv.Itoa(q.Offset))
	set(q.TimeResolved, "timeresolved", "1")
	set(q.Preview, "view", "preview")
	set(q.Endpoint == "preview" && !q.Preview, "view", q.View.String())
	if q.Window {
		set(true, "window", clock.FormatWindow(q.Lo, q.Hi))
	}
	return b
}

// key is the answer memo's key of q over seal generation gen: what the
// answer depends on besides the trace, whose namespace holds the entry.
func (q Query) key(gen uint64) interval.MemoKey {
	b := strconv.AppendUint(make([]byte, 0, 256), gen, 10)
	b = append(append(append(b, ' '), q.Endpoint...), '?')
	return interval.NewMemoKey(q.appendEncoded(b))
}

// answerMemo says whether q's answer is memoized whole: every /stats but
// the JSON form, whose plan counts change from one asking to the next,
// every /preview.svg, and of /records only counts (a page reads at most
// its own frames and the window's cut frames, so keeping it buys little).
// bypass says that an endpoint that memoizes answers does not memoize
// this one.
func (q Query) answerMemo() (memo, bypass bool) {
	switch q.Endpoint {
	case "stats":
		return !q.JSON, q.JSON
	case "records":
		return q.Count, !q.Count
	case "preview":
		return true, false
	}
	return false, false
}
