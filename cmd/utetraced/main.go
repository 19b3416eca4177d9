// Command utetraced is the long-running trace query daemon: it keeps a
// registry of opened interval files behind JSON/SVG endpoints, with a
// sharded LRU memo of whole answers and whole frames' stats partials
// underneath, so a repeated window query is a lookup and a fresh one
// over known frames reads only the frames it cuts (the VampirServer /
// Jumpshot preview-then-drill-down model, serving the same bytes the
// one-shot utilities print).
//
// Usage:
//
//	utetraced [-addr HOST:PORT] [-cache-mb N] [-ingest-dir DIR]
//	          [-ingest-max-batch N] [-pprof] [trace.ute ...]
//
// Any interval files on the command line are opened before the server
// starts listening. Endpoints:
//
//	GET    /v1/traces                   registered traces (JSON)
//	POST   /v1/traces                   open {"path": "..."} (JSON)
//	GET    /v1/traces/{id}              one trace's metadata (JSON)
//	DELETE /v1/traces/{id}              close and unregister
//	GET    /v1/traces/{id}/frames       frame directory (JSON)
//	GET    /v1/traces/{id}/stats        statistics tables (TSV, byte-
//	                                    identical to utestats stdout);
//	                                    ?window=lo:hi ?expr=... ?bins=N
//	GET    /v1/traces/{id}/records      paged records (JSON);
//	                                    ?window= ?limit= ?offset= ?count=1
//	GET    /v1/traces/{id}/preview.svg  time-space diagram (SVG, byte-
//	                                    identical to uteview);
//	                                    ?view= ?window= ?connected=1
//	GET    /metrics                     Prometheus text format
//	GET    /debug/pprof/...             runtime profiles (with -pprof only)
//
// With -ingest-dir the streaming write path is enabled (403 otherwise):
//
//	POST   /v1/ingest/{trace}?op=begin&nodes=N    start a live trace
//	POST   /v1/ingest/{trace}?node=I&seq=S        one raw batch (&last=1
//	                                              marks a node's final batch)
//	POST   /v1/ingest/{trace}?op=abort            cancel (prefix stays valid)
//	GET    /v1/ingest                             all sessions (JSON)
//	GET    /v1/ingest/{trace}                     session status (JSON)
//
// A live trace is registered under /v1/traces the moment it begins and
// is queryable from its first sealed frame group; every query sees the
// sealed tail as of its own start. Shutdown drains in-flight sessions —
// open states close as at end of trace and every live file seals
// completely.
//
// The daemon prints one "listening on" line once the socket is bound
// (with the resolved port, so -addr :0 is scriptable) and shuts down
// cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracefw/internal/ingest"
	"tracefw/internal/tracesvc"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7464", "listen address (port 0 = pick a free port)")
		cacheMB   = flag.Int64("cache-mb", 256, "memo budget for stats partials and whole answers, MiB")
		ingestDir = flag.String("ingest-dir", "", "enable streaming ingest; live trace files are written here")
		ingestMax = flag.Int64("ingest-max-batch", 8<<20, "largest accepted ingest batch, bytes")
		pprof     = flag.Bool("pprof", false, "serve the net/http/pprof profiles under /debug/pprof/")
	)
	flag.Parse()
	if *ingestMax <= 0 {
		fmt.Fprintln(os.Stderr, "utetraced: -ingest-max-batch must be positive")
		os.Exit(2)
	}

	svc := tracesvc.New(tracesvc.Config{CacheBytes: *cacheMB << 20})
	if *ingestDir != "" {
		m, err := ingest.NewManager(ingest.Config{Dir: *ingestDir, MaxBatchBytes: *ingestMax})
		if err != nil {
			fatal(err)
		}
		svc.EnableIngest(m)
		fmt.Printf("utetraced: ingest enabled, live traces in %s\n", *ingestDir)
	}
	for _, p := range flag.Args() {
		t, err := svc.Registry().Open(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("utetraced: opened %s as %s\n", p, t.ID)
	}

	svc.SetReady()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := svc.Handler()
	if *pprof {
		handler = tracesvc.WithPprof(handler)
	}
	srv := tracesvc.NewServer(handler)
	fmt.Printf("utetraced: listening on http://%s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err == nil {
			err = <-done // always http.ErrServerClosed after Shutdown
		}
	case err = <-done:
	}
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Println("utetraced: shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utetraced:", err)
	os.Exit(1)
}
