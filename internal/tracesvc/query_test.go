package tracesvc

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
)

// queryEndpoints are the endpoints ParseQuery knows, by fuzz index.
var queryEndpoints = []string{"stats", "records", "preview", "get", "frames"}

// oracleErr is the 400 the handlers gave a request before they shared
// ParseQuery, found by their own checks in their own order: bins, window
// and the time-resolved expr on /stats; limit, offset, window and the
// frame range's syntax on /records; window, then the bins of a preview
// or the diagram's view on /preview.svg. Nothing on the others.
func oracleErr(endpoint string, v url.Values) error {
	window := func() error {
		if w := v.Get("window"); w != "" {
			if _, _, err := clock.ParseWindow(w); err != nil {
				return badRequest("bad window: %v", err)
			}
		}
		return nil
	}
	bins := func() error {
		if bs := v.Get("bins"); bs != "" {
			if n, err := strconv.Atoi(bs); err != nil || n < 1 || n > stats.MaxBins {
				return badRequest("bad bins %q (1 to %d)", bs, stats.MaxBins)
			}
		}
		return nil
	}
	switch endpoint {
	case "stats":
		if err := bins(); err != nil {
			return err
		}
		if err := window(); err != nil {
			return err
		}
		if v.Get("timeresolved") == "1" && v.Get("expr") != "" {
			return badRequest("timeresolved=1 does not take an expr")
		}
	case "records":
		if ls := v.Get("limit"); ls != "" {
			if n, err := strconv.Atoi(ls); err != nil || n < 1 {
				return badRequest("bad limit %q", ls)
			}
		}
		if os := v.Get("offset"); os != "" {
			if n, err := strconv.Atoi(os); err != nil || n < 0 {
				return badRequest("bad offset %q", os)
			}
		}
		if err := window(); err != nil {
			return err
		}
		if fr := v.Get("frames"); fr != "" {
			i := -1
			for j := 0; j < len(fr); j++ {
				if fr[j] == ':' {
					i = j
					break
				}
			}
			if i < 0 {
				return badRequest("bad frames %q", fr)
			}
			lo, err1 := strconv.Atoi(fr[:i])
			hi, err2 := strconv.Atoi(fr[i+1:])
			if err1 != nil || err2 != nil || lo < 0 || hi < lo {
				return badRequest("bad frames %q", fr)
			}
		}
	case "preview":
		if err := window(); err != nil {
			return err
		}
		if v.Get("view") == "preview" {
			return bins()
		}
		if _, err := render.ParseView(v.Get("view")); err != nil {
			return badRequest("%v", err)
		}
	}
	return nil
}

// FuzzQuery holds ParseQuery to its contract on any raw query to any
// endpoint: it never panics; it rejects exactly what the handlers'
// checks rejected, with the same 400 text; and what it accepts, Encode
// spells so that ParseQuery reads back the same Query, with a parameter
// nothing reads changing neither the Query nor its answer key.
func FuzzQuery(f *testing.F) {
	for _, s := range []string{
		"", "window=1:2&bins=8", "window=1.0:2.0", "window=:", "window=:0.1&count=1",
		"window=-9223372036.854775807:9223372036.854775807", "window=1e9:", "window=2:1", "window=junk",
		"bins=0", "bins=65537", "bins=x", "timeresolved=1&expr=x", "timeresolved=1&bins=6&format=json",
		"expr=table+name%3Dt+y%3D%28%22n%22%2C+dura%2C+count%29&format=json",
		"limit=0", "limit=junk", "offset=-1", "limit=9223372036854775807&offset=1", "limit=+5&offset=007",
		"frames=0:5", "frames=9:1", "frames=bogus", "frames=+0:5&count=1&limit=5", "frames=1:", "frames=:",
		"view=preview&bins=8", "view=preview&bins=x", "view=bogus", "view=threads&connected=1", "view=cpus",
		"engine=nope&summary=scan&ask=3", "window=0.1:0.3&connected=1&view=states",
	} {
		for e := range queryEndpoints {
			f.Add(uint8(e), s)
		}
	}
	f.Fuzz(func(t *testing.T, e uint8, raw string) {
		endpoint := queryEndpoints[int(e)%len(queryEndpoints)]
		v, _ := url.ParseQuery(raw)
		q, err := ParseQuery(endpoint, v)
		if want := oracleErr(endpoint, v); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s?%s: ParseQuery says %v, the handlers' checks %v", endpoint, raw, err, want)
		}
		if err != nil {
			var he *httpErr
			if !errors.As(err, &he) || he.code != http.StatusBadRequest {
				t.Fatalf("%s?%s: %v is not a 400", endpoint, raw, err)
			}
			return
		}
		enc := q.Encode()
		ev, err := url.ParseQuery(enc)
		if err != nil {
			t.Fatalf("%s?%s: Encode wrote %q, which does not parse: %v", endpoint, raw, enc, err)
		}
		back, err := ParseQuery(endpoint, ev)
		if err != nil || back != q {
			t.Fatalf("%s?%s: Encode wrote %q, read back as %+v (%v), want %+v", endpoint, raw, enc, back, err, q)
		}
		ev.Set("junk", raw)
		junk, err := ParseQuery(endpoint, ev)
		if err != nil || junk != q || junk.key(7) != q.key(7) {
			t.Fatalf("%s?%s: a junk parameter changed the Query or its key (%v)", endpoint, raw, err)
		}
		if q.key(7) == q.key(8) || q.key(7) == (interval.MemoKey{}) {
			t.Fatalf("%s?%s: the key ignores the seal generation or is the zero key", endpoint, raw)
		}
	})
}
