package tracesvc

import (
	"net/http"
	"net/http/pprof"
)

// WithPprof returns h behind the runtime profiles of net/http/pprof,
// mounted under /debug/pprof/: what utetraced and uterouter serve on
// their own listener with -pprof. Everything else reaches h unchanged.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
