// Command uterouter is the horizontal serving tier's front door: a
// consistent-hash router over N utetraced backends. Traces are placed
// on the ring by path; a single huge trace is additionally split into
// contiguous frame-range segments at frame-directory boundaries, one
// per backend, so each backend's memo holds only its share of the
// partials and answers. Decomposable queries (records, counts) scatter-gather across
// the segments and merge in frame order; aggregations (stats,
// previews, time-resolved tables) route whole to a deterministic
// window-affinity owner, because the router has no merge for their
// partials yet and a time-resolved table's peak concurrency is not a
// sum of per-segment peaks. Every response body is byte-identical to
// what a single utetraced would have produced for the same trace.
//
// Usage:
//
//	uterouter -backends URL[,URL...] [-addr HOST:PORT] [-split-frames N]
//	          [-pprof] [trace.ute ...]
//
// The backends must share a filesystem with the router: every backend
// opens the same trace files. Trace files on the command line are
// opened across the fleet before the router starts listening. The
// endpoints mirror utetraced's read API (/v1/traces...), plus
// /metrics, /healthz, and /readyz; with -pprof, /debug/pprof/ serves the
// router's own runtime profiles (never a backend's).
//
// The router prints one "listening on" line once the socket is bound
// and shuts down cleanly on SIGINT/SIGTERM.
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
	"strings"
	"syscall"
	"time"

	"tracefw/internal/shard"
	"tracefw/internal/tracesvc"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7470", "listen address (port 0 = pick a free port)")
		backends = flag.String("backends", "", "comma-separated utetraced base URLs (required)")
		split    = flag.Int("split-frames", 4096, "frame count above which a trace splits into per-backend segments")
		pprof    = flag.Bool("pprof", false, "serve the router's own net/http/pprof profiles under /debug/pprof/")
	)
	flag.Parse()
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "uterouter: -backends is required")
		os.Exit(2)
	}
	var bs []shard.Backend
	for i, u := range strings.Split(*backends, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
		if u == "" {
			fmt.Fprintln(os.Stderr, "uterouter: empty backend URL in -backends")
			os.Exit(2)
		}
		bs = append(bs, shard.Backend{Name: fmt.Sprintf("b%d", i), URL: u})
	}

	rt, err := shard.NewRouter(shard.Config{Backends: bs, SplitFrames: *split})
	if err != nil {
		fatal(err)
	}
	ready := rt.CheckBackends(context.Background())
	fmt.Printf("uterouter: %d/%d backends ready\n", ready, len(bs))

	for _, p := range flag.Args() {
		info, err := rt.OpenTrace(context.Background(), p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("uterouter: opened %s as %s\n", p, info.ID)
	}
	rt.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := rt.Handler()
	if *pprof {
		handler = tracesvc.WithPprof(handler)
	}
	srv := tracesvc.NewServer(handler)
	fmt.Printf("uterouter: listening on http://%s\n", ln.Addr())

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
	rt.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Println("uterouter: shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uterouter:", err)
	os.Exit(1)
}
