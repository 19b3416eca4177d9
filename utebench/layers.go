package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// lapLayers are the layers a measured lap's self time is split between.
// "harness" is the lap's own remainder: output checks, hashing, cleanup,
// process start-up — what the laps cost beyond the programs under test.
var lapLayers = []string{"tracegen", "convert", "merge", "stats", "render", "sweep", "shard", "tracesvc", "ingest", "harness"}

// perLayer is the traced run's metric set. Layer = module, measured at
// the command or endpoint that exposes it, always over the workload's own
// trace: the same probes run on every workload, so each layer's cost is
// known on each input shape (the sppm 4x8 trace, the 96 %-pseudo wide
// cell, the storm streams), and lap.*_share_pct says which layers the
// workload's end-to-end numbers actually depend on.
var perLayer = []metricDef{
	{"tracegen.ns_per_event", "ns"},
	{"tracegen.raw_bytes_per_event", "B"},
	{"tracegen.peak_rss_mb", "MiB"},
	{"convert.ns_per_event", "ns"},
	{"convert.cpu_ns_per_event", "ns"},
	{"convert.out_bytes_per_event", "B"},
	{"convert.peak_rss_mb", "MiB"},
	{"convert.j2_speedup", "x"},
	{"merge.ns_per_record", "ns"},
	{"merge.ns_per_event", "ns"},
	{"merge.records_per_event", "count"},
	{"merge.pseudo_share", "%"},
	{"merge.peak_rss_mb", "MiB"},
	{"merge.j2_speedup", "x"},
	{"interval.bytes_per_record", "B"},
	{"interval.frames", "count"},
	{"interval.records_per_frame", "count"},
	{"interval.validate_ns_per_record", "ns"},
	{"pyramid.build_ns_per_record", "ns"},
	{"pyramid.bytes_per_record", "B"},
	{"slog.build_ns_per_record", "ns"},
	{"slog.bytes_per_record", "B"},
	{"stats.tables_ns_per_record", "ns"},
	{"stats.window5pct_ms", "ms"},
	{"stats.timeresolved_pyramid_ms", "ms"},
	{"stats.timeresolved_nopyr_ms", "ms"},
	{"stats.j2_speedup", "x"},
	{"render.preview_ms", "ms"},
	{"render.diagram_ms", "ms"},
	{"sweep.cell_ms", "ms"},
	{"sweep.vs_stages_pct", "%"},
	{"tracesvc.stats_warm_p50_ms", "ms"},
	{"tracesvc.stats_cold_p50_ms", "ms"},
	{"tracesvc.preview_p50_ms", "ms"},
	{"tracesvc.timeresolved_p50_ms", "ms"},
	{"tracesvc.records_warm_p50_ms", "ms"},
	{"tracesvc.records_cold_p50_ms", "ms"},
	{"tracesvc.p99_ms", "ms"},
	{"tracesvc.open_ms", "ms"},
	{"tracesvc.cache_hit_ratio", "%"},
	{"tracesvc.frames_decoded_per_request", "count"},
	{"tracesvc.pyramid_answer_share", "%"},
	{"shard.overhead_p50_ms", "ms"},
	{"shard.stats_p50_ms", "ms"},
	{"shard.scatter_share", "%"},
	{"shard.legs_per_request", "count"},
	{"shard.backend_balance", "%"},
	{"ingest.ack_p50_ms", "ms"},
	{"ingest.ack_p95_ms", "ms"},
	{"ingest.first_seal_ms", "ms"},
	{"ingest.finish_lag_ms", "ms"},
	{"ingest.seals_per_session", "count"},
	{"ingest.window_retries", "count"},
	{"ingest.bytes_per_event", "B"},
	{"lap.tracegen_share_pct", "%"},
	{"lap.convert_share_pct", "%"},
	{"lap.merge_share_pct", "%"},
	{"lap.stats_share_pct", "%"},
	{"lap.render_share_pct", "%"},
	{"lap.sweep_share_pct", "%"},
	{"lap.shard_share_pct", "%"},
	{"lap.tracesvc_share_pct", "%"},
	{"lap.ingest_share_pct", "%"},
	{"lap.harness_share_pct", "%"},
	{"load.client_cpu_share", "%"},
	{"host.calib_before_ms", "ms"},
	{"host.calib_after_ms", "ms"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// probeLayers measures every layer over the workload's trace k. Probes
// exist only for the per-layer numbers and run after the laps, in a
// traced run only; the end-to-end metrics never see them.
func (b *bench) probeLayers(root *span, k *traceKit) (map[string]float64, error) {
	sp := b.tr.start(root, "probes", "harness")
	defer sp.end()
	b.pollRSS = true
	dir := filepath.Join(b.tmp, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := make(map[string]float64)
	if k.spanHi <= k.spanLo {
		if err := b.runExtent(sp, k); err != nil {
			return nil, err
		}
	}
	stages, err := b.probeBatch(sp, k, dir, m)
	if err != nil {
		return nil, fmt.Errorf("batch layers: %w", err)
	}
	if err := b.probeSweep(sp, k, stages, m); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if err := b.probeServe(sp, k, m); err != nil {
		return nil, fmt.Errorf("serving tier: %w", err)
	}
	if err := b.probeIngest(sp, k, dir, m); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return m, nil
}

// medianOf3 runs fn and, when it was quick, twice more, returning the
// median: single subprocess timings of a few dozen milliseconds are too
// erratic to report alone, and the long probes cannot afford repeats.
func medianOf3(fn func() (time.Duration, error)) (time.Duration, error) {
	d, err := fn()
	if err != nil || d > 700*time.Millisecond {
		return d, err
	}
	ds := []float64{float64(d)}
	for i := 0; i < 2; i++ {
		if d, err = fn(); err != nil {
			return d, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// timed runs a stage up to three times (see medianOf3) and returns the
// median wall time with the last run's result.
func (b *bench) timed(sp *span, layer, tool string, args ...string) (time.Duration, procResult, error) {
	var last procResult
	d, err := medianOf3(func() (time.Duration, error) {
		var err error
		last, err = b.run(sp, layer, tool, args...)
		return last.Wall, err
	})
	return d, last, err
}

// probeBatch measures the batch layers — tracegen, convert, merge,
// interval, pyramid, slog, stats, render — and returns the summed wall
// time of the file-based stages a sweep cell replaces.
func (b *bench) probeBatch(sp *span, k *traceKit, dir string, m map[string]float64) (time.Duration, error) {
	ev, rec := float64(k.events), float64(k.records)
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / ev }
	perRecord := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / rec }
	rssMB := func(r procResult) float64 { return float64(r.RSSKB) / 1024 }

	// The raw streams and per-node interval files already exist in the
	// kit; stages are re-run into dir so every number comes from the same
	// quiet phase of the run.
	gen, genRes, err := b.timed(sp, "tracegen", "tracegen", k.sh.tracegenArgs(b.seed, dir)...)
	if err != nil {
		return 0, err
	}
	var rawBytes int64
	for _, p := range k.raws {
		rawBytes += fileSize(p)
	}
	m["tracegen.ns_per_event"] = perEvent(gen)
	m["tracegen.raw_bytes_per_event"] = float64(rawBytes) / ev
	m["tracegen.peak_rss_mb"] = rssMB(genRes)

	convArgs := func(j string) []string {
		return append([]string{"-j", j, "-out-dir", dir}, k.raws...)
	}
	conv, convRes, err := b.timed(sp, "convert", "uteconvert", convArgs("1")...)
	if err != nil {
		return 0, err
	}
	conv2, _, err := b.timed(sp, "convert", "uteconvert", convArgs("2")...)
	if err != nil {
		return 0, err
	}
	var uteBytes int64
	for _, p := range k.utes {
		uteBytes += fileSize(p)
	}
	m["convert.ns_per_event"] = perEvent(conv)
	m["convert.cpu_ns_per_event"] = perEvent(convRes.CPU)
	m["convert.out_bytes_per_event"] = float64(uteBytes) / ev
	m["convert.peak_rss_mb"] = rssMB(convRes)
	m["convert.j2_speedup"] = float64(conv) / float64(conv2)

	// merge: plain at -j 1 and -j 2, then once each with the pyramid and
	// the SLOG build; each sidecar's cost is the difference to plain.
	mergeArgs := func(o mergeOpts) []string {
		o.noAdjust = k.opts.noAdjust
		_, args := mergeArgv(o, dir, k.utes)
		return args
	}
	merge, mergeRes, err := b.timed(sp, "merge", "utemerge", mergeArgs(mergeOpts{})...)
	if err != nil {
		return 0, err
	}
	merge2, _, err := b.timed(sp, "merge", "utemerge", mergeArgs(mergeOpts{jobs: 2})...)
	if err != nil {
		return 0, err
	}
	withPyr, _, err := b.timed(sp, "pyramid", "utemerge", mergeArgs(mergeOpts{pyramid: true})...)
	if err != nil {
		return 0, err
	}
	withSlog, _, err := b.timed(sp, "slog", "utemerge", mergeArgs(mergeOpts{slog: true})...)
	if err != nil {
		return 0, err
	}
	merged, slogPath := filepath.Join(dir, "merged.ute"), filepath.Join(dir, "trace.slog")
	m["merge.ns_per_record"] = perRecord(merge)
	m["merge.ns_per_event"] = perEvent(merge)
	m["merge.records_per_event"] = rec / ev
	m["merge.pseudo_share"] = 100 * float64(k.pseudo) / rec
	m["merge.peak_rss_mb"] = rssMB(mergeRes)
	m["merge.j2_speedup"] = float64(merge) / float64(merge2)
	m["pyramid.build_ns_per_record"] = perRecord(withPyr - merge)
	m["pyramid.bytes_per_record"] = float64(fileSize(merged+".pyr")) / rec
	m["slog.build_ns_per_record"] = perRecord(withSlog - merge)
	m["slog.bytes_per_record"] = float64(fileSize(slogPath)) / rec
	os.Remove(slogPath)

	// interval: the merged file's own encoding and its structural check.
	sizes, err := b.run(sp, "interval", "utedump", "-sizes", merged)
	if err != nil {
		return 0, err
	}
	sm := reSizes.FindSubmatch(sizes.Out)
	if sm == nil {
		return 0, fmt.Errorf("utedump -sizes: no total line")
	}
	var frames int64
	val, err := medianOf3(func() (wall time.Duration, err error) {
		frames, wall, err = b.validate(sp, merged)
		return wall, err
	})
	if err != nil {
		return 0, err
	}
	m["interval.bytes_per_record"] = float64(atoi64(sm[1])) / float64(atoi64(sm[2]))
	m["interval.frames"] = float64(frames)
	m["interval.records_per_frame"] = rec / float64(frames)
	m["interval.validate_ns_per_record"] = perRecord(val)

	// stats: the merged file in dir has its .pyr beside it (the pyramid
	// merge ran last but one and the SLOG merge rewrote identical bytes);
	// a hard link under another name is the same trace without a sidecar.
	tables, _, err := b.timed(sp, "stats", "utestats", "-j", "1", merged)
	if err != nil {
		return 0, err
	}
	tables2, _, err := b.timed(sp, "stats", "utestats", "-j", "2", merged)
	if err != nil {
		return 0, err
	}
	win, _, err := b.timed(sp, "stats", "utestats", "-j", "1", "-window", k.midWindow(0.05), merged)
	if err != nil {
		return 0, err
	}
	trPyr, _, err := b.timed(sp, "stats", "utestats", "-j", "1", "-timeresolved", "-bins", "64", merged)
	if err != nil {
		return 0, err
	}
	bare := filepath.Join(dir, "bare.ute")
	if err := os.Link(merged, bare); err != nil {
		return 0, err
	}
	trScan, _, err := b.timed(sp, "stats", "utestats", "-j", "1", "-timeresolved", "-bins", "64", bare)
	if err != nil {
		return 0, err
	}
	m["stats.tables_ns_per_record"] = perRecord(tables)
	m["stats.j2_speedup"] = float64(tables) / float64(tables2)
	m["stats.window5pct_ms"] = msOf(win)
	m["stats.timeresolved_pyramid_ms"] = msOf(trPyr)
	m["stats.timeresolved_nopyr_ms"] = msOf(trScan)

	preview, _, err := b.timed(sp, "render", "uteview", "-merged", merged, "-preview", "-bins", "512", "-o", filepath.Join(dir, "preview.svg"))
	if err != nil {
		return 0, err
	}
	diagram, _, err := b.timed(sp, "render", "uteview", "-merged", merged, "-window", k.midWindow(0.02), "-o", filepath.Join(dir, "diagram.svg"))
	if err != nil {
		return 0, err
	}
	m["render.preview_ms"] = msOf(preview)
	m["render.diagram_ms"] = msOf(diagram)

	// What a sweep cell does in one process, as file-based stages.
	return gen + conv + merge + trScan, nil
}

// probeSweep runs the workload's shape as one utesweep cell and sets it
// against the file-based stages it replaces.
func (b *bench) probeSweep(sp *span, k *traceKit, stages time.Duration, m map[string]float64) error {
	var records int64
	cell, err := medianOf3(func() (time.Duration, error) {
		res, n, err := b.sweepCell(sp, k.sh)
		records = n
		return res.Wall, err
	})
	if err != nil {
		return err
	}
	// utesweep merges with the default clock estimator; frame boundaries,
	// and with them the pseudo-interval count, follow the adjusted times.
	if !k.opts.noAdjust {
		b.check(records == k.records, "utesweep merged %d records, the file-based replay %d", records, k.records)
	}
	m["sweep.cell_ms"] = msOf(cell)
	m["sweep.vs_stages_pct"] = 100 * float64(cell) / float64(stages)
	return nil
}

// probeServe starts a fresh fleet over the workload's merged trace and
// queries it twice with one request plan: directly on one backend (cold
// pass, then warm) for the tracesvc numbers, then through the router for
// what the shard layer adds. Router and backend answers to the same
// query must be byte-equal.
func (b *bench) probeServe(sp *span, k *traceKit, m map[string]float64) error {
	fl, err := b.startFleet()
	if err != nil {
		return err
	}
	defer b.stopFleet(fl)
	// The probe serves the workload's trace as the workload built it:
	// previews are pyramid-answered only where it merged with -pyramid.
	rt, _, err := b.openTrace(sp, "shard", fl.router.url, k.merged)
	if err != nil {
		return err
	}
	// The router opened the file on every backend; a direct open returns
	// the backend's own registration and times the open path.
	be := fl.backends[0]
	ti, openDur, err := b.openTrace(sp, "tracesvc", be.url, k.merged)
	if err != nil {
		return err
	}
	// First touch of every window, alternating the two frame-decoding
	// classes; then one warm lap sequence.
	pool := windowPool(ti.StartSec, ti.EndSec, 6)
	cold, warm := coldPass(pool, "stats", "records"), lapSequence(pool)
	shuffle(rand.New(rand.NewSource(int64(b.seed))), warm)
	book := newBodyBook()
	coldS := b.fire(sp, "tracesvc", be.url, ti.ID, cold, book)
	before := b.scrape(be.url)
	direct := b.fire(sp, "tracesvc", be.url, ti.ID, warm, book)
	after := b.scrape(be.url)
	delta := func(name string) float64 { return after[name] - before[name] }

	m["tracesvc.open_ms"] = msOf(openDur)
	m["tracesvc.stats_cold_p50_ms"] = p50ms(coldS, "stats")
	m["tracesvc.records_cold_p50_ms"] = p50ms(coldS, "records")
	m["tracesvc.stats_warm_p50_ms"] = p50ms(direct, "stats")
	m["tracesvc.preview_p50_ms"] = p50ms(direct, "preview")
	m["tracesvc.timeresolved_p50_ms"] = p50ms(direct, "timeresolved")
	m["tracesvc.records_warm_p50_ms"] = p50ms(direct, "records")
	m["tracesvc.p99_ms"] = quantile(msAll(dursOf(direct, "")), 0.99)
	hits, misses := delta("tracesvc_cache_hits_total"), delta("tracesvc_cache_misses_total")
	m["tracesvc.cache_hit_ratio"] = ratioPct(hits, hits+misses)
	m["tracesvc.frames_decoded_per_request"] = delta("tracesvc_frames_decoded_total") / float64(len(warm))
	pyr, scan := delta(`tracesvc_summary_queries_total{engine="pyramid"}`), delta(`tracesvc_summary_queries_total{engine="scan"}`)
	m["tracesvc.pyramid_answer_share"] = ratioPct(pyr, pyr+scan)

	// Through the router: same plan, same bodies expected.
	rBefore, legsBefore := b.scrape(fl.router.url), b.backendRangeLegs(fl)
	routed := b.fire(sp, "shard", fl.router.url, rt.ID, warm, book)
	rAfter, legsAfter := b.scrape(fl.router.url), b.backendRangeLegs(fl)
	m["shard.stats_p50_ms"] = p50ms(routed, "stats")
	m["shard.overhead_p50_ms"] = p50ms(routed, "preview") - p50ms(direct, "preview")
	legs := sumPrefix(rAfter, "uterouter_backend_requests_total") - sumPrefix(rBefore, "uterouter_backend_requests_total")
	m["shard.legs_per_request"] = legs / float64(len(warm))
	m["shard.scatter_share"] = ratioPct(legsAfter-legsBefore, legs)
	lo, hi := math.Inf(1), 0.0
	for name, v := range rAfter {
		if strings.HasPrefix(name, "uterouter_backend_requests_total") {
			d := v - rBefore[name]
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
	}
	m["shard.backend_balance"] = ratioPct(lo, hi)
	return nil
}

// backendRangeLegs sums the backends' frame-range query counters: the
// scatter-gather legs the router sent them.
func (b *bench) backendRangeLegs(fl *fleet) float64 {
	s := 0.0
	for _, d := range fl.backends {
		s += b.scrape(d.url)["tracesvc_range_queries_total"]
	}
	return s
}

// p50ms is the median latency, ms, of the samples of one kind.
func p50ms(ss []sample, kind string) float64 { return median(msAll(dursOf(ss, kind))) }

func ratioPct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// probeIngest streams the workload's raw files through one watched live
// session (up to three when quick) on a fresh daemon.
func (b *bench) probeIngest(sp *span, k *traceKit, dir string, m map[string]float64) error {
	batches, err := loadBatches(k.raws)
	if err != nil {
		return err
	}
	refSHA, err := b.ingestReference(sp, k, dir)
	if err != nil {
		return err
	}
	live := filepath.Join(dir, "live")
	if err := os.MkdirAll(live, 0o755); err != nil {
		return err
	}
	d, err := b.startDaemon("utetraced", "-addr", "127.0.0.1:0", "-ingest-dir", live)
	if err != nil {
		return err
	}
	defer b.stopDaemon(d)
	var acks, firstSeal, lag, seals, retries []float64
	var sealed int64
	n := 0
	_, err = medianOf3(func() (time.Duration, error) {
		n++
		r, err := b.ingestSession(sp, d, live, fmt.Sprintf("probe-%d", n), batches, refSHA, true)
		if err != nil {
			return 0, err
		}
		acks = append(acks, msAll(r.acks)...)
		firstSeal = append(firstSeal, msOf(r.firstSeal))
		lag = append(lag, msOf(r.finishLag))
		seals = append(seals, r.seals)
		retries = append(retries, float64(r.retries))
		sealed = r.bytes
		return r.work, nil
	})
	if err != nil {
		return err
	}
	m["ingest.ack_p50_ms"] = median(acks)
	m["ingest.ack_p95_ms"] = quantile(acks, 0.95)
	m["ingest.first_seal_ms"] = median(firstSeal)
	m["ingest.finish_lag_ms"] = median(lag)
	m["ingest.seals_per_session"] = median(seals)
	m["ingest.window_retries"] = median(retries)
	m["ingest.bytes_per_event"] = float64(sealed) / float64(k.events)
	return nil
}
