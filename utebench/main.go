// Command utebench is the repo's benchmark ledger: a black-box driver
// that builds the repo's commands once, then runs them as subprocesses
// and talks to the daemons over loopback HTTP. It imports nothing from
// the repo — the commands' flags, their output, the documented file
// formats and the /v1 HTTP API are the layers' public surface — so the
// changes it is meant to judge never have to edit it.
//
//	utebench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	utebench                       every workload in turn
//	utebench -agree K              two interleaved sets of K runs, compared
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every child runs with, whatever the host
// has: numbers stay comparable between hosts of two or more cores.
const childProcs = 2

// lapSample is what one lap contributes to the end-to-end metrics.
type lapSample struct {
	work  time.Duration   // the interval throughput is computed over
	lat   []time.Duration // their median is the lap's latency_p50_ms
	query []time.Duration // their median is the lap's query_p50_ms
}

// workload is one benchmark workload: identical seeded laps over state
// built by setup.
type workload interface {
	setup(sp *span) error
	teardown()
	lap(sp *span) (lapSample, error)
	units() float64         // work items per lap: raw events, or requests
	bytesPerEvent() float64 // stored bytes per raw event
	peakRSSMB() float64     // peak resident memory of the programs under test, this lap
	daemons() []*daemon     // long-running children, for CPU accounting
	kit() *traceKit         // the workload's own trace, for the layer probes
}

// plan fixes how much of a workload one run executes.
type plan struct {
	setups  int // set-ups timed (the median is setup_s); the last one is used
	warm    int // unmeasured laps
	minLaps int // measured laps even if they overrun -seconds
}

type workloadDef struct {
	name string
	why  string
	plan plan
	mk   func(b *bench, toy bool) workload
}

var (
	sppm4x8  = shape{"sppm", "iters=4000", 4, 8, 1}
	wide216  = shape{"imbalance", "iters=10", 216, 4, 4}
	storm2x4 = shape{"storm", "iters=20000", 2, 4, 2}

	// Toy shapes keep every flag and endpoint on the path at a size the
	// smoke test finishes in seconds.
	toySppm  = shape{"sppm", "iters=40", 4, 8, 1}
	toyWide  = shape{"imbalance", "iters=2", 8, 4, 4}
	toyStorm = shape{"storm", "iters=300", 2, 4, 2}
)

func pick(toy bool, full, small shape) shape {
	if toy {
		return small
	}
	return full
}

var workloads = []workloadDef{
	{"pipeline_sppm_4x8",
		"The paper's 4x8 machine end to end (tracegen, convert, merge+slog+pyramid, stats, view): every batch layer holds 10-35% of a lap, so any one layer's gain shows and none dominates.",
		plan{setups: 3, warm: 2, minLaps: 5},
		func(b *bench, toy bool) workload { return &pipelineWorkload{b: b, sh: pick(toy, sppm4x8, toySppm)} }},
	{"sweep_wide_216x4",
		"A 216-node sweep cell: 2.4M merged records, 96% frame-start pseudo-intervals, so merge dominates; the mirror image of the pipeline workload, where pseudo-intervals are negligible.",
		plan{setups: 3, warm: 1, minLaps: 5},
		func(b *bench, toy bool) workload { return &sweepWorkload{b: b, sh: pick(toy, wide216, toyWide)} }},
	{"serve_zoom_warm",
		"The read path through uterouter over 2 utetraced with the decoded-frame cache fitting: window stats over cached frames; no batch layer runs, so a convert or merge change must not move it.",
		plan{setups: 3, warm: 2, minLaps: 5},
		func(b *bench, toy bool) workload {
			w := &serveWorkload{b: b, sh: pick(toy, sppm4x8, toySppm), windows: 16}
			if toy {
				w.windows = 2
			}
			return w
		}},
	{"ingest_live_2x4",
		"The write path: 2 poster streams into one utetraced (streaming convert, clock gate, live merge, append-only seal); a change that helps readers but hurts the live writer shows here.",
		plan{setups: 3, warm: 2, minLaps: 5},
		func(b *bench, toy bool) workload { return &ingestWorkload{b: b, sh: pick(toy, storm2x4, toyStorm)} }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"bytes_per_event", "B"},
	{"peak_rss_mb", "MiB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is the provenance printed with, and written next to, every
// result.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Traced     bool      `json:"traced"`
	Seconds    float64   `json:"seconds"`
	Setups     int       `json:"setups"`
	WarmLaps   int       `json:"warm_laps"`
	Laps       int       `json:"laps"`
	LapSeconds []float64 `json:"lap_seconds"`
	LapLatMs   []float64 `json:"lap_latency_p50_ms"`
	LapQueryMs []float64 `json:"lap_query_p50_ms"`
	Clients    int       `json:"closed_loop_clients"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	ChildProcs int       `json:"child_gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	Kernel     string    `json:"kernel"`
}

func hostInfo(root string) runInfo {
	ri := runInfo{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), ChildProcs: childProcs, Clients: loadClients, Commit: "unknown"}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		ri.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				ri.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		ri.Kernel = strings.TrimSpace(string(data))
	}
	return ri
}

// newBench prepares the work directory and builds the repo's commands —
// outside every timed region.
func newBench(root string, seed uint64) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, work: filepath.Join(root, ".bench_build"), seed: seed, tr: newTracer()}
	b.bin = filepath.Join(b.work, "bin")
	for _, d := range []string{b.bin, filepath.Join(b.work, "gocache"), filepath.Join(b.work, "gotmp"), filepath.Join(b.work, "out"), filepath.Join(b.work, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if b.tmp, err = os.MkdirTemp(filepath.Join(b.work, "tmp"), "run-"); err != nil {
		return nil, err
	}
	// Children see a fixed GOMAXPROCS and none of the runtime knobs that
	// would make two hosts' numbers differ for no reason in the code.
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			b.childEnv = append(b.childEnv, kv)
		}
	}
	b.childEnv = append(b.childEnv, fmt.Sprintf("GOMAXPROCS=%d", childProcs))

	build := exec.Command("go", "build", "-o", b.bin, "./cmd/...")
	build.Dir = root
	// The go command keeps its cache, temporaries and telemetry counters
	// inside the work directory too.
	build.Env = append(os.Environ(), "GOCACHE="+filepath.Join(b.work, "gocache"), "GOTMPDIR="+filepath.Join(b.work, "gotmp"),
		"XDG_CONFIG_HOME="+filepath.Join(b.work, "config"), "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/... in %s: %v\n%s", root, err, out)
	}
	return b, nil
}

// cleanup stops whatever is still running and removes the scratch files.
func (b *bench) cleanup() {
	b.stopAllDaemons()
	os.RemoveAll(b.tmp)
}

// measure runs one workload and returns its metrics: the end-to-end set
// untraced, the per-layer set traced.
func (b *bench) measure(name string, p plan, w workload, seconds float64, traced bool, ri *runInfo) (map[string]float64, error) {
	if traced {
		// setup_s comes from the untraced run, and the probes that follow
		// the laps need the other half of the time.
		p.setups, seconds = 1, seconds/2
		p.minLaps = max(p.minLaps, 2) // one lap with spans, one without
	}
	ri.Setups, ri.WarmLaps = p.setups, p.warm
	b.tr.enable(traced)
	root := b.tr.start(nil, name, "harness")
	defer root.end()

	calibBefore := calibrate()
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		sp := b.tr.start(root, "setup", "harness")
		t0 := time.Now()
		if err := w.setup(sp); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
	}
	defer w.teardown()

	b.tr.enable(false)
	for i := 0; i < p.warm; i++ {
		if _, err := w.lap(nil); err != nil {
			return nil, fmt.Errorf("warm-up lap: %w", err)
		}
	}

	// Measured laps: whole laps until -seconds have passed. A traced run
	// records spans on every other lap, so the same run also yields what
	// recording costs.
	var rss, onLaps, offLaps []float64
	cpu0 := b.cpuSnapshot(w)
	t0 := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	// minLaps may overrun the budget on a slow host, but not without end.
	hardStop := 4*budget + 30*time.Second
	for i := 0; time.Since(t0) < budget || (i < p.minLaps && time.Since(t0) < hardStop); i++ {
		on := traced && i%2 == 0
		b.tr.enable(on)
		sp := b.tr.start(root, "lap", "harness")
		if sp != nil {
			sp.Lap = i
		}
		// Peak memory is taken per lap and the median reported: a peak
		// over the whole run is a maximum of maxima, and repeats far worse.
		b.peakRSSKB.Store(0)
		for _, d := range w.daemons() {
			d.resetHWM()
		}
		s, err := w.lap(sp)
		sp.end()
		ri.Laps++
		if err != nil {
			continue // booked as a failed operation; the lap yields no sample
		}
		ri.LapSeconds = append(ri.LapSeconds, s.work.Seconds())
		rss = append(rss, w.peakRSSMB())
		ri.LapLatMs = append(ri.LapLatMs, median(msAll(s.lat)))
		ri.LapQueryMs = append(ri.LapQueryMs, median(msAll(s.query)))
		if on {
			onLaps = append(onLaps, s.work.Seconds())
		} else {
			offLaps = append(offLaps, s.work.Seconds())
		}
	}
	b.tr.enable(traced)
	cpu1 := b.cpuSnapshot(w)
	calibAfter := calibrate()
	if len(ri.LapSeconds) == 0 {
		return nil, fmt.Errorf("no lap completed")
	}
	if drift := math.Abs(float64(calibAfter-calibBefore)) / float64(calibBefore); drift > 0.05 {
		fmt.Fprintf(os.Stderr, "utebench: warning: host speed drifted %.1f%% during the run (calibration loop %.1f ms before, %.1f ms after)\n",
			100*drift, msOf(calibBefore), msOf(calibAfter))
	}

	if !traced {
		// Every timing metric is the lower quartile over laps of the
		// lap's own figure (its wall time, its median request latency).
		// Interference on a shared host only ever slows a lap, so p25
		// estimates the program's own speed; in the host's noisy spells
		// it repeated 20-35 % tighter than the median over laps did.
		return map[string]float64{
			"setup_s":          median(setups),
			"throughput_per_s": w.units() / quantile(ri.LapSeconds, 0.25),
			"latency_p50_ms":   quantile(ri.LapLatMs, 0.25),
			"query_p50_ms":     quantile(ri.LapQueryMs, 0.25),
			"bytes_per_event":  w.bytesPerEvent(),
			"peak_rss_mb":      median(rss),
		}, nil
	}

	m, err := b.probeLayers(root, w.kit())
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	shares := b.tr.lapShares()
	for _, l := range lapLayers {
		m["lap."+l+"_share_pct"] = shares[l]
	}
	m["load.client_cpu_share"] = 100 * float64(cpu1.self-cpu0.self) / float64(cpu1.total()-cpu0.total())
	m["host.calib_before_ms"] = msOf(calibBefore)
	m["host.calib_after_ms"] = msOf(calibAfter)
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = childProcs
	if len(onLaps) > 0 && len(offLaps) > 0 {
		m["bench.trace_overhead_pct"] = 100 * (median(onLaps) - median(offLaps)) / median(offLaps)
	}
	return m, nil
}

// cpuTimes splits CPU consumed so far between the harness and the
// programs under test.
type cpuTimes struct{ self, children time.Duration }

func (c cpuTimes) total() time.Duration { return c.self + c.children }

func (b *bench) cpuSnapshot(w workload) cpuTimes {
	c := cpuTimes{self: selfCPU(), children: time.Duration(b.childCPU.Load())}
	for _, d := range w.daemons() {
		c.children += d.cpu()
	}
	return c
}

// runOne executes a single workload and prints its report; the last
// line is the result object.
func runOne(root, name string, seed uint64, seconds float64, traced, toy bool) (*result, error) {
	def := findWorkload(name)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	b, err := newBench(root, seed)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(130)
	}()

	ri := hostInfo(b.root)
	ri.Workload, ri.Seed, ri.Traced, ri.Seconds = name, seed, traced, seconds
	p := def.plan
	if toy {
		p = plan{setups: 1, minLaps: 1}
	}
	vals, err := b.measure(name, p, def.mk(b, toy), seconds, traced, &ri)
	if err != nil {
		return nil, err
	}

	defs, suffix := endToEnd, ""
	if traced {
		defs, suffix = perLayer, "-traced"
		if err := b.tr.write(filepath.Join(b.work, "out", "trace-"+name+".json"), ri); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: make(map[string]metricValue)}
	res.Correct = res.Failed == 0
	fmt.Printf("utebench %s: seed %d, %d setups, %d warm + %d measured laps in %gs, %d closed-loop clients, traced=%v\n",
		name, seed, ri.Setups, ri.WarmLaps, ri.Laps, seconds, ri.Clients, traced)
	fmt.Printf("  commit %s, %s, nproc %d, child GOMAXPROCS %d, %s, kernel %s\n",
		ri.Commit, ri.GoVersion, ri.NProc, ri.ChildProcs, ri.CPUModel, ri.Kernel)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  ops_attempted %d, ops_failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	record, err := json.MarshalIndent(struct {
		Run    runInfo `json:"run"`
		Result *result `json:"result"`
	}{ri, res}, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(b.work, "out", "result-"+name+suffix+".json"), append(record, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

func main() {
	var (
		root    = flag.String("root", ".", "checkout root (the directory holding go.mod and cmd/)")
		name    = flag.String("workload", "", "workload to run (default: each in turn)")
		seed    = flag.Uint64("seed", 12, "seed for tracegen and the request sequence")
		seconds = flag.Float64("seconds", 20, "measured phase length per workload")
		trace   = flag.Int("trace", 0, "1 = traced run: spans, layer probes, per-layer metrics")
		agreeK  = flag.Int("agree", 0, "run two interleaved sets of K runs per workload and compare them against the bounds")
	)
	flag.Parse()
	switch {
	case *agreeK > 0:
		os.Exit(agree(*root, *name, *seed, *seconds, *agreeK))
	case *name == "":
		os.Exit(runAll(*root, *seed, *seconds, *trace))
	}
	if _, err := runOne(*root, *name, *seed, *seconds, *trace != 0, false); err != nil {
		fmt.Fprintln(os.Stderr, "utebench:", err)
		os.Exit(1)
	}
}
