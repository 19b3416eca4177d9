// Command tracegen runs a synthetic workload on the simulated SP
// machine and writes one raw trace file per node (<out>/raw.<n>) — the
// trace-generation step of the paper's Figure 2. Workloads come from
// the workload registry (-list-workloads prints every name with its
// parameters), are parameterized with -params, and run under a
// selectable scheduling policy.
//
// Usage:
//
//	tracegen -out DIR [-workload NAME] [-params k=v,k=v...]
//	         [-policy fifo|bestfit|worstfit|oversub[:N]]
//	         [-nodes N] [-tasks-per-node T] [-cpus C] [-seed S]
//	         [-outlier-prob P] [-wrap] [-buffer BYTES]
//	tracegen -list-workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tracefw/internal/cluster"
	"tracefw/internal/events"
	"tracefw/internal/mpisim"
	"tracefw/internal/sched"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// minWrapBuffer is the smallest circular buffer that can hold the raw
// header plus at least a handful of records; smaller values cannot
// produce a convertible trace.
const minWrapBuffer = 1024

func main() {
	var (
		out     = flag.String("out", ".", "output directory for raw trace files")
		wl      = flag.String("workload", "ring", "workload name from the registry (see -list-workloads)")
		params  = flag.String("params", "", "workload parameters as k=v,k=v (see -list-workloads)")
		list    = flag.Bool("list-workloads", false, "print the workload registry and exit")
		policy  = flag.String("policy", "", "scheduling policy: fifo (default), bestfit, worstfit, oversub[:N]")
		nodes   = flag.Int("nodes", 2, "SMP nodes")
		tpn     = flag.Int("tasks-per-node", 1, "MPI tasks per node")
		cpus    = flag.Int("cpus", 2, "CPUs per node")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		outlier = flag.Float64("outlier-prob", 0, "probability of a de-scheduled clock sample")
		wrap    = flag.Bool("wrap", false, "circular trace buffer: keep only the newest -buffer bytes of records")
		bufSize = flag.Int("buffer", 0, "trace buffer size in bytes (0 = 1 MiB)")
	)
	flag.Parse()

	if *list {
		listWorkloads()
		return
	}
	if *nodes < 1 {
		usageErr(fmt.Sprintf("-nodes must be >= 1, got %d", *nodes))
	}
	if *cpus < 1 {
		usageErr(fmt.Sprintf("-cpus must be >= 1, got %d", *cpus))
	}
	if *tpn < 1 {
		usageErr(fmt.Sprintf("-tasks-per-node must be >= 1, got %d", *tpn))
	}
	if *bufSize < 0 {
		usageErr(fmt.Sprintf("-buffer must be >= 0, got %d", *bufSize))
	}
	if *wrap && *bufSize > 0 && *bufSize < minWrapBuffer {
		usageErr(fmt.Sprintf("-wrap needs -buffer of at least %d bytes, got %d", minWrapBuffer, *bufSize))
	}
	if *outlier < 0 || *outlier > 1 {
		usageErr(fmt.Sprintf("-outlier-prob must be in [0,1], got %g", *outlier))
	}

	pol, err := sched.ParsePolicy(*policy)
	if err != nil {
		usageErr(err.Error())
	}
	if _, ok := workload.Lookup(*wl); !ok {
		usageErr(fmt.Sprintf("unknown workload %q; run tracegen -list-workloads", *wl))
	}
	wp, err := workload.ParseParams(*params)
	if err != nil {
		usageErr(err.Error())
	}
	main_, err := workload.Build(*wl, wp)
	if err != nil {
		usageErr(err.Error())
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       *nodes,
			CPUsPerNode: *cpus,
			Seed:        *seed,
			Policy:      pol,
			OutlierProb: *outlier,
			TraceOpts: trace.Options{
				Prefix:     filepath.Join(*out, "raw"),
				Enabled:    events.MaskAll,
				Wrap:       *wrap,
				BufferSize: *bufSize,
			},
		},
		TasksPerNode: *tpn,
	}
	w, err := mpisim.NewFiles(cfg)
	if err != nil {
		fatal(err)
	}
	w.Start(main_)
	end, err := w.Run()
	if err != nil {
		fatal(err)
	}
	var cut int64
	for _, f := range w.M.Facilities {
		c, _ := f.Counts()
		cut += c
	}
	fmt.Printf("tracegen: %s under %s on %d nodes × %d tasks × %d cpus: %v virtual time, %d events, files %s.0..%d\n",
		*wl, pol.Name(), *nodes, *tpn, *cpus, end, cut, cfg.Cluster.TraceOpts.Prefix, *nodes-1)
}

func listWorkloads() {
	for _, name := range workload.Names() {
		spec, _ := workload.Lookup(name)
		fmt.Printf("%-12s %s\n", name, spec.Doc)
		for _, p := range spec.Params {
			fmt.Printf("    %-14s %s (default %d)\n", p.Name, p.Doc, p.Default)
		}
	}
	fmt.Printf("\npolicies: ")
	for i, n := range sched.PolicyNames() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(n)
	}
	fmt.Println()
}

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "tracegen:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
