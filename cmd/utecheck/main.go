// Command utecheck validates an interval trace file and, when the file
// is damaged, reports what a best-effort salvage can still recover —
// optionally writing the recovered records to a fresh, valid interval
// file.
//
// Usage:
//
//	utecheck [-json] [-repair OUT] [-repair-pyramid] FILE
//
// When a summary-pyramid sidecar (FILE.pyr) exists next to a valid
// trace, utecheck cross-validates it against the frame directory: the
// sidecar must load (magic, CRCs, source signature) and a sample of its
// base cells must answer window summaries identically to a frame-decode
// recompute. Sidecar problems are reported but never change the exit
// code — the sidecar is advisory and every reader falls back to the
// scan engine — and -repair-pyramid rebuilds a missing, stale, damaged,
// or diverging sidecar from the frames. A trace whose sidecar would
// outweigh it has none, and is healthy so: a rebuild that the size rule
// declines writes nothing, and a sidecar on disk that outweighs its
// trace is reported as ignored, which is what every reader does with it.
//
// The exit code is machine-readable:
//
//	0  the file validates; nothing was lost
//	1  the file is damaged but salvage recovered at least one frame
//	2  the file is damaged beyond salvage (no frame could be verified)
//	3  usage error, or the file could not be read or OUT written
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tracefw/internal/interval"
	"tracefw/internal/profile"
)

// report is the -json output. Exit codes carry the verdict; the report
// carries the details.
type report struct {
	File          string                     `json:"file"`
	HeaderVersion uint32                     `json:"headerVersion,omitempty"`
	Valid         bool                       `json:"valid"`
	Error         string                     `json:"error,omitempty"`
	Validation    *interval.ValidationReport `json:"validation,omitempty"`
	Salvage       *interval.SalvageReport    `json:"salvage,omitempty"`
	RepairPath    string                     `json:"repairPath,omitempty"`
	Repair        *interval.RepairReport     `json:"repair,omitempty"`
	Pyramid       *pyramidJSON               `json:"pyramid,omitempty"`
}

// pyramidJSON reports the summary-pyramid sidecar check.
type pyramidJSON struct {
	Path         string `json:"path"`
	Status       string `json:"status"` // ok, absent, ignored, declined, damaged, mismatch, rebuilt
	Detail       string `json:"detail,omitempty"`
	CellsChecked int    `json:"cellsChecked,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("utecheck", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report on stdout")
	repairTo := fs.String("repair", "", "write the salvaged records to a fresh interval file at `OUT`")
	pyrRepair := fs.Bool("repair-pyramid", false, "rebuild the .pyr summary sidecar when it is missing, stale, damaged, or diverges")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: utecheck [-json] [-repair OUT] [-repair-pyramid] FILE")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(3)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "utecheck: need exactly one interval file")
		os.Exit(3)
	}
	path := fs.Arg(0)
	rep := &report{File: path}

	if _, err := os.Stat(path); err != nil {
		fatal(rep, *jsonOut, err)
	}
	f, err := interval.Open(path)
	if err != nil {
		// The fixed header did not parse: salvage has nothing to anchor
		// on, so the file is beyond recovery.
		rep.Error = err.Error()
		emit(rep, *jsonOut, fmt.Sprintf("%s: unsalvageable: %v", path, err))
		os.Exit(2)
	}
	defer f.Close()
	rep.HeaderVersion = f.Header.HeaderVersion

	// Validate against the standard profile when the file was written
	// under it; structural checks only otherwise.
	prof := profile.Standard()
	if prof.Version != f.Header.ProfileVersion {
		prof = nil
	}
	vrep, verr := f.Validate(prof)
	rep.Validation = vrep
	if verr == nil {
		rep.Valid = true
		if *repairTo != "" {
			sv := f.Salvage()
			rep.Salvage = &sv.Report
			repair(rep, f, sv, *repairTo, *jsonOut)
		}
		rep.Pyramid = checkPyramid(f, path, *pyrRepair, rep, *jsonOut)
		emit(rep, *jsonOut, fmt.Sprintf("%s: valid (%d records in %d frames, %d directories)%s",
			path, vrep.Records, vrep.Frames, vrep.Dirs, pyramidNote(rep)))
		os.Exit(0)
	}
	rep.Error = verr.Error()

	sv := f.Salvage()
	rep.Salvage = &sv.Report
	if *repairTo != "" {
		repair(rep, f, sv, *repairTo, *jsonOut)
	}
	if sv.Report.FramesRecovered == 0 {
		emit(rep, *jsonOut, fmt.Sprintf("%s: unsalvageable: %v", path, verr))
		os.Exit(2)
	}
	emit(rep, *jsonOut, fmt.Sprintf(
		"%s: damaged (%v); salvaged %d frames, %d records, %d bytes lost%s",
		path, verr, sv.Report.FramesRecovered, sv.Report.RecordsRecovered,
		sv.Report.BytesLost, repairNote(rep)))
	os.Exit(1)
}

// repair writes the salvaged frames to a fresh interval file at out.
func repair(rep *report, f *interval.File, sv *interval.SalvageResult, out string, jsonOut bool) {
	dst, err := os.Create(out)
	if err != nil {
		fatal(rep, jsonOut, err)
	}
	rrep, err := interval.Repair(f, sv, dst, interval.WriterOptions{})
	if err == nil {
		err = dst.Close()
	} else {
		dst.Close()
	}
	if err != nil {
		os.Remove(out)
		fatal(rep, jsonOut, fmt.Errorf("repair %s: %w", out, err))
	}
	rep.RepairPath = out
	rep.Repair = rrep
}

// checkPyramid cross-validates the summary-pyramid sidecar against the
// frame data. A missing sidecar is only an event when rebuild is set.
func checkPyramid(f *interval.File, path string, rebuild bool, rep *report, jsonOut bool) *pyramidJSON {
	pp := interval.PyramidPath(path)
	pj := &pyramidJSON{Path: pp}
	st, err := os.Stat(pp)
	if err != nil {
		if !rebuild {
			return nil
		}
		pj.Status = "absent"
		rebuildPyramid(pj, path, rep, jsonOut)
		return pj
	}
	if interval.SidecarOutweighs(st.Size(), f.Size) {
		pj.Status = "ignored"
		pj.Detail = fmt.Sprintf("the sidecar (%d bytes) outweighs the trace (%d bytes)", st.Size(), f.Size)
		if rebuild {
			rebuildPyramid(pj, path, rep, jsonOut)
		}
		return pj
	}
	p, err := interval.LoadPyramid(pp, f)
	if err != nil {
		pj.Status, pj.Detail = "damaged", err.Error()
		if rebuild {
			rebuildPyramid(pj, path, rep, jsonOut)
		}
		return pj
	}
	n, err := f.VerifyPyramid(p)
	pj.CellsChecked = n
	if err != nil {
		pj.Status, pj.Detail = "mismatch", err.Error()
		if rebuild {
			rebuildPyramid(pj, path, rep, jsonOut)
		}
		return pj
	}
	pj.Status = "ok"
	return pj
}

// rebuildPyramid drops the old sidecar state and rebuilds it from the
// frames, keeping the detail that explains why — unless the size rule
// declines the new sidecar, which leaves the trace with none.
func rebuildPyramid(pj *pyramidJSON, path string, rep *report, jsonOut bool) {
	b, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{})
	if err != nil {
		fatal(rep, jsonOut, fmt.Errorf("rebuild pyramid %s: %w", pj.Path, err))
	}
	pj.Status = "rebuilt"
	if b.Declined() {
		pj.Status = "declined"
		pj.Detail = fmt.Sprintf("a sidecar (%d bytes) would outweigh the trace (%d bytes)", b.Bytes, b.TraceBytes)
	}
}

func pyramidNote(rep *report) string {
	pj := rep.Pyramid
	switch {
	case pj == nil:
		return ""
	case pj.Status == "ok":
		return fmt.Sprintf("; pyramid ok (%d cells checked)", pj.CellsChecked)
	case pj.Status == "ignored":
		return fmt.Sprintf("; pyramid ignored: %s", pj.Detail)
	case pj.Status == "declined":
		return fmt.Sprintf("; no pyramid: %s", pj.Detail)
	case pj.Status == "rebuilt" && pj.Detail == "":
		return "; pyramid rebuilt"
	case pj.Status == "rebuilt":
		return fmt.Sprintf("; pyramid rebuilt (was: %s)", pj.Detail)
	default:
		return fmt.Sprintf("; pyramid %s: %s (rerun with -repair-pyramid)", pj.Status, pj.Detail)
	}
}

func repairNote(rep *report) string {
	if rep.Repair == nil {
		return ""
	}
	return fmt.Sprintf("; wrote %d frames to %s", rep.Repair.FramesWritten, rep.RepairPath)
}

// emit prints the human one-liner, or the JSON report when -json is on.
func emit(rep *report, jsonOut bool, line string) {
	if !jsonOut {
		fmt.Println(line)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "utecheck:", err)
		os.Exit(3)
	}
}

func fatal(rep *report, jsonOut bool, err error) {
	rep.Error = err.Error()
	if jsonOut {
		emit(rep, true, "")
	}
	fmt.Fprintln(os.Stderr, "utecheck:", err)
	os.Exit(3)
}
