// Command uteload is a load generator for the serving tier: it points
// N concurrent clients at a utetraced or uterouter, replays a weighted
// mix of window queries (stats, SVG previews, time-resolved tables,
// record counts) with zipfian trace popularity, and reports throughput
// and tail latency for a cold pass (every window touched once) and a
// measured warm phase. The warm phase is closed-loop unless -rate R
// makes it open-loop: requests are then due at R per second whatever
// the server does, latency runs from each request's intended send time
// (so a stalled server's queueing shows), -clients caps the requests in
// flight, and arrivals that find the cap reached are reported dropped.
// With -backends it also scrapes each backend's /metrics before and
// after the warm phase and reports, per backend, the frames it decoded
// per measured request and the hit ratios of the whole-answer memo and
// the whole-frame stats-partial memo.
//
// Usage:
//
//	uteload -url http://HOST:PORT [-backends URL,URL...]
//	        [-clients N] [-requests N] [-rate R]
//	        [-mix stats=4,preview=2,timeresolved=1,records=3]
//	        [-zipf S] [-seed N] [-bins N] [-windows N] [-json]
//
// The target must already have traces open; uteload discovers them via
// GET /v1/traces. Exit status: 0 on success, 1 on run failure, 2 on
// flag misuse.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"tracefw/internal/load"
)

func main() {
	var (
		url      = flag.String("url", "", "base URL of the service under test (required)")
		backends = flag.String("backends", "", "comma-separated backend base URLs to scrape for cache and memo hit ratios")
		clients  = flag.Int("clients", 4, "concurrent clients (with -rate: the in-flight cap)")
		rate     = flag.Float64("rate", 0, "open-loop warm phase at this many requests per second (0: closed loop)")
		requests = flag.Int("requests", 200, "measured warm-phase request count")
		mixFlag  = flag.String("mix", "", "query mix weights, e.g. stats=4,preview=2,timeresolved=1,records=3")
		zipfS    = flag.Float64("zipf", 1.1, "zipf exponent for trace popularity")
		seed     = flag.Uint64("seed", 1, "random seed (request sequence is reproducible)")
		bins     = flag.Int("bins", 16, "bins parameter for stats/preview queries")
		windows  = flag.Int("windows", 16, "window-pool size per trace")
		asJSON   = flag.Bool("json", false, "emit the full report as JSON")
	)
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "uteload: -url is required")
		os.Exit(2)
	}
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		fmt.Fprintln(os.Stderr, "uteload: -rate must be a finite number >= 0")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uteload:", err)
		os.Exit(2)
	}
	cfg := load.Config{
		BaseURL:  strings.TrimSuffix(*url, "/"),
		Clients:  *clients,
		Requests: *requests,
		Mix:      mix,
		ZipfS:    *zipfS,
		Seed:     *seed,
		Bins:     *bins,
		Windows:  *windows,
		Rate:     *rate,
	}
	if *backends != "" {
		for _, u := range strings.Split(*backends, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u != "" {
				cfg.BackendURLs = append(cfg.BackendURLs, u)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := load.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uteload:", err)
		os.Exit(1)
	}

	if *asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "uteload:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("uteload: %d traces, %d clients, mix stats=%d preview=%d timeresolved=%d records=%d\n",
		rep.Traces, rep.Clients, rep.Mix.Stats, rep.Mix.Preview, rep.Mix.TimeResolved, rep.Mix.Records)
	if rep.Rate > 0 {
		fmt.Printf("  warm phase open-loop at %g req/s, at most %d in flight\n", rep.Rate, rep.Clients)
	}
	printPhase("cold", rep.Cold)
	printPhase("warm", rep.Warm)
	for _, b := range rep.Backends {
		fmt.Printf("  backend %s: frames +%d decoded (%.3f per request), answers +%d hits / +%d asked (hit ratio %.3f), partials +%d hits / +%d misses (hit ratio %.3f)\n",
			b.URL, b.FramesDecoded, b.FramesPerRequest, b.AnswerHits, b.Answers, b.AnswerHitRatio, b.PartialHits, b.PartialMisses, b.PartialHitRatio)
	}
	if rep.Warm.Errors > 0 || rep.Cold.Errors > 0 {
		os.Exit(1)
	}
}

func printPhase(name string, p load.Phase) {
	fmt.Printf("  %-4s %5d reqs  %4d errors  %4d dropped  %8.1f qps  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  max %7.2fms\n",
		name, p.Requests, p.Errors, p.Dropped, p.QPS, p.P50Ms, p.P95Ms, p.P99Ms, p.MaxMs)
}

// parseMix parses "stats=4,preview=2,timeresolved=1,records=3". An
// empty string selects the package default mix.
func parseMix(s string) (load.Mix, error) {
	var m load.Mix
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad -mix weight %q", part)
		}
		switch kv[0] {
		case "stats":
			m.Stats = w
		case "preview":
			m.Preview = w
		case "timeresolved":
			m.TimeResolved = w
		case "records":
			m.Records = w
		default:
			return m, fmt.Errorf("unknown -mix kind %q (want stats, preview, timeresolved, records)", kv[0])
		}
	}
	if m.Stats+m.Preview+m.TimeResolved+m.Records == 0 {
		return m, fmt.Errorf("-mix %q has zero total weight", s)
	}
	return m, nil
}
