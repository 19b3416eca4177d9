package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// shape is one simulated machine and program: the arguments tracegen
// and utesweep share. Every workload owns one, and the traced run's
// layer probes all run over the trace this shape produces.
type shape struct {
	workload string // tracegen registry name
	params   string // k=v,k=v
	nodes    int
	cpus     int
	tasks    int // per node
}

func (s shape) tracegenArgs(seed uint64, dir string) []string {
	return []string{"-workload", s.workload, "-params", s.params,
		"-nodes", strconv.Itoa(s.nodes), "-cpus", strconv.Itoa(s.cpus),
		"-tasks-per-node", strconv.Itoa(s.tasks),
		"-seed", strconv.FormatUint(seed, 10), "-out", dir}
}

func (s shape) sweepArgs(seed uint64) []string {
	return []string{"-nodes", strconv.Itoa(s.nodes), "-cpus", strconv.Itoa(s.cpus),
		"-tasks-per-node", strconv.Itoa(s.tasks), "-policies", "fifo",
		"-workloads", fmt.Sprintf("%s(%s)", s.workload, s.params),
		"-seed", strconv.FormatUint(seed, 10), "-j", "1"}
}

// mergeOpts selects what utemerge builds next to the merged file.
type mergeOpts struct {
	slog      bool
	pyramid   bool
	noAdjust  bool // -estimator none: what a live ingest is byte-identical to
	jobs      int  // -j, 0 means 1
	outPrefix string
}

// traceKit is one generated trace taken through the batch pipeline:
// the files and the counts the tools reported.
type traceKit struct {
	dir     string
	sh      shape
	opts    mergeOpts
	raws    []string // raw.N, node order
	utes    []string // trace.N.ute, node order
	merged  string
	events  int64 // raw events, as tracegen counts them
	records int64 // merged records
	pseudo  int64 // of which frame-start pseudo-intervals
	spanLo  float64
	spanHi  float64 // merged run extent, seconds

}

var (
	reEvents  = regexp.MustCompile(`(\d+) events, files`)
	reMerged  = regexp.MustCompile(`\((\d+) records, (\d+) pseudo\)`)
	reSpan    = regexp.MustCompile(`span \[(-?[\d.]+)s \.\. (-?[\d.]+)s\]`)
	reValid   = regexp.MustCompile(`valid \((\d+) records in (\d+) frames`)
	reSizes   = regexp.MustCompile(`total: (\d+)B of frame data, (\d+) records`)
	reRawNode = regexp.MustCompile(`^raw\.(\d+)$`)
)

func atoi64(b []byte) int64 {
	n, _ := strconv.ParseInt(string(b), 10, 64)
	return n
}

// generate runs tracegen into dir and lists the raw files in node order.
func (b *bench) generate(sp *span, sh shape, dir string) (raws []string, events int64, err error) {
	res, err := b.run(sp, "tracegen", "tracegen", sh.tracegenArgs(b.seed, dir)...)
	if err != nil {
		return nil, 0, err
	}
	m := reEvents.FindSubmatch(res.Out)
	if m == nil {
		return nil, 0, fmt.Errorf("tracegen: no event count in %q", lastLine(res.Out))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type nodeFile struct {
		n    int
		path string
	}
	var nf []nodeFile
	for _, e := range ents {
		if mm := reRawNode.FindStringSubmatch(e.Name()); mm != nil {
			n, _ := strconv.Atoi(mm[1])
			nf = append(nf, nodeFile{n, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(nf, func(i, j int) bool { return nf[i].n < nf[j].n })
	for _, f := range nf {
		raws = append(raws, f.path)
	}
	if len(raws) != sh.nodes {
		return nil, 0, fmt.Errorf("tracegen wrote %d raw files for %d nodes", len(raws), sh.nodes)
	}
	return raws, atoi64(m[1]), nil
}

// convert runs uteconvert over raws into dir and names the per-node
// interval files it writes.
func (b *bench) convert(sp *span, jobs int, dir string, raws []string) ([]string, error) {
	args := append([]string{"-j", strconv.Itoa(max(jobs, 1)), "-out-dir", dir}, raws...)
	_, err := b.run(sp, "convert", "uteconvert", args...)
	utes := make([]string, len(raws))
	for i := range raws {
		utes[i] = filepath.Join(dir, fmt.Sprintf("trace.%d.ute", i))
	}
	return utes, err
}

// mergeArgv is the utemerge command line for o, writing
// dir/<prefix>merged.ute.
func mergeArgv(o mergeOpts, dir string, utes []string) (path string, args []string) {
	path = filepath.Join(dir, o.outPrefix+"merged.ute")
	args = []string{"-j", strconv.Itoa(max(o.jobs, 1)), "-o", path}
	if o.slog {
		args = append(args, "-slog", filepath.Join(dir, o.outPrefix+"trace.slog"))
	}
	if o.pyramid {
		args = append(args, "-pyramid")
	}
	if o.noAdjust {
		args = append(args, "-estimator", "none")
	}
	return path, append(args, utes...)
}

// mergeTo runs utemerge and returns the merged path with the record and
// pseudo-interval counts it printed.
func (b *bench) mergeTo(sp *span, o mergeOpts, dir string, utes []string) (path string, records, pseudo int64, err error) {
	path, args := mergeArgv(o, dir, utes)
	res, err := b.run(sp, "merge", "utemerge", args...)
	if err != nil {
		return path, 0, 0, err
	}
	m := reMerged.FindSubmatch(res.Out)
	if m == nil {
		return path, 0, 0, fmt.Errorf("utemerge: no record count in output")
	}
	return path, atoi64(m[1]), atoi64(m[2]), nil
}

// buildKit generates sh's trace in dir and takes it through convert and
// merge.
func (b *bench) buildKit(sp *span, sh shape, o mergeOpts, dir string) (*traceKit, error) {
	k := &traceKit{dir: dir, sh: sh, opts: o}
	var err error
	if k.raws, k.events, err = b.generate(sp, sh, dir); err != nil {
		return nil, err
	}
	if k.utes, err = b.convert(sp, o.jobs, dir, k.raws); err != nil {
		return nil, err
	}
	if k.merged, k.records, k.pseudo, err = b.mergeTo(sp, o, dir, k.utes); err != nil {
		return nil, err
	}
	return k, nil
}

// validate runs `utedump -validate` on an interval file; the structural
// check passing is one output check. It returns the frame count and how
// long the check took.
func (b *bench) validate(sp *span, path string) (frames int64, wall time.Duration, err error) {
	res, err := b.run(sp, "interval", "utedump", "-validate", path)
	if err != nil {
		return 0, res.Wall, err
	}
	m := reValid.FindSubmatch(res.Out)
	b.check(m != nil, "utedump -validate %s: %s", path, lastLine(res.Out))
	if m != nil {
		frames = atoi64(m[2])
	}
	return frames, res.Wall, nil
}

// runExtent reads the merged file's time span from utedump's summary
// line; windows are chosen from it, never from tracegen's virtual time.
func (b *bench) runExtent(sp *span, k *traceKit) error {
	res, err := b.run(sp, "interval", "utedump", "-n", "1", k.merged)
	if err != nil {
		return err
	}
	m := reSpan.FindSubmatch(res.Out)
	if m == nil {
		return fmt.Errorf("utedump: no span in output")
	}
	k.spanLo, _ = strconv.ParseFloat(string(m[1]), 64)
	k.spanHi, _ = strconv.ParseFloat(string(m[2]), 64)
	if !(k.spanHi > k.spanLo) {
		return fmt.Errorf("utedump: empty run extent %v..%v", k.spanLo, k.spanHi)
	}
	return nil
}

// midWindow is the lo:hi window covering frac of the run around its
// midpoint.
func (k *traceKit) midWindow(frac float64) string {
	mid, half := (k.spanLo+k.spanHi)/2, (k.spanHi-k.spanLo)*frac/2
	return fmt.Sprintf("%.6f:%.6f", mid-half, mid+half)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
