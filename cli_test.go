package tracefw

// Builds the command-line utilities and drives the paper's Figure 2 flow
// through the actual binaries: tracegen → uteconvert → utemerge (-slog)
// → utestats / uteview / utedump.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// buildCmds compiles every cmd once per test binary invocation.
func buildCmds(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, name := range []string{"tracegen", "uteconvert", "utemerge", "utestats", "uteview", "utedump", "utecheck", "utetraced", "uterouter", "uteload", "utesweep"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, name), "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return bin
}

func runCmd(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()

	// tracegen: small sppm run.
	out := runCmd(t, bin, "tracegen",
		"-out", dir, "-workload", "sppm", "-nodes", "2", "-cpus", "4", "-iters", "4", "-seed", "5")
	if !strings.Contains(out, "events") {
		t.Fatalf("tracegen output: %s", out)
	}
	for n := 0; n < 2; n++ {
		if _, err := os.Stat(filepath.Join(dir, "raw."+string(rune('0'+n)))); err != nil {
			t.Fatal(err)
		}
	}

	// uteconvert.
	out = runCmd(t, bin, "uteconvert", "-out-dir", dir,
		filepath.Join(dir, "raw.0"), filepath.Join(dir, "raw.1"))
	if !strings.Contains(out, "sec/event") {
		t.Fatalf("uteconvert output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "profile.ute")); err != nil {
		t.Fatal("profile.ute missing")
	}

	// utemerge with SLOG and -pyramid. A sidecar would be a hundred
	// times this 2 KB trace, so it is declined: one line with both sizes,
	// exit 0, nothing written (TestCLIPyramidSidecar covers a trace that
	// gets one).
	merged := filepath.Join(dir, "merged.ute")
	slogPath := filepath.Join(dir, "trace.slog")
	out = runCmd(t, bin, "utemerge", "-o", merged, "-slog", slogPath, "-pyramid",
		filepath.Join(dir, "trace.0.ute"), filepath.Join(dir, "trace.1.ute"))
	if !strings.Contains(out, "ratio") || !strings.Contains(out, "slog") {
		t.Fatalf("utemerge output: %s", out)
	}
	st, err := os.Stat(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^utemerge: pyramid not written: the sidecar \(\d+ bytes\) would outweigh the trace \(%d bytes\)`, st.Size())).MatchString(out) ||
		strings.Count(out, "pyramid") != 1 {
		t.Fatalf("utemerge -pyramid on a tiny trace: %s", out)
	}
	if _, err := os.Stat(merged + ".pyr"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a declined sidecar is on disk (stat: %v)", err)
	}

	// utestats: predefined tables to stdout, then the paper's example.
	out = runCmd(t, bin, "utestats", "-check-profile", merged)
	if !strings.Contains(out, "interesting_by_node_bin") {
		t.Fatalf("utestats predefined output missing Figure 6 table:\n%s", out)
	}
	out = runCmd(t, bin, "utestats", "-e",
		`table name=sample condition=(start < 2) x=("node", node) y=("avg(duration)", dura, avg)`,
		merged)
	if !strings.Contains(out, "node\tavg(duration)") {
		t.Fatalf("utestats example output:\n%s", out)
	}

	// utestats to files with SVGs.
	statsDir := filepath.Join(dir, "stats")
	runCmd(t, bin, "utestats", "-out", statsDir, "-svg", merged)
	if _, err := os.Stat(filepath.Join(statsDir, "interesting_by_node_bin.svg")); err != nil {
		t.Fatal("stats SVG missing")
	}

	// uteview: all four views as SVG, the preview, ASCII, and a frame
	// fetch.
	for _, view := range []string{"thread-activity", "processor-activity", "thread-processor", "processor-thread"} {
		svgPath := filepath.Join(dir, view+".svg")
		runCmd(t, bin, "uteview", "-merged", merged, "-view", view, "-o", svgPath)
		b, err := os.ReadFile(svgPath)
		if err != nil || !strings.HasPrefix(string(b), "<svg") {
			t.Fatalf("view %s: err=%v", view, err)
		}
	}
	out = runCmd(t, bin, "uteview", "-merged", merged, "-ascii")
	if !strings.Contains(out, "legend:") {
		t.Fatalf("ascii view output:\n%s", out)
	}
	out = runCmd(t, bin, "uteview", "-slog", slogPath, "-preview", "-ascii")
	if !strings.Contains(out, "preview:") {
		t.Fatalf("preview output:\n%s", out)
	}
	// uteview -preview straight from the merged file; with no sidecar
	// the scan answers.
	out = runCmd(t, bin, "uteview", "-merged", merged, "-preview", "-v", "-ascii")
	if !strings.Contains(out, "preview answered by scan engine") || !strings.Contains(out, "preview:") {
		t.Fatalf("merged preview output:\n%s", out)
	}

	out = runCmd(t, bin, "uteview", "-slog", slogPath, "-frame-at", "0.01")
	if !strings.Contains(out, "frame ") {
		t.Fatalf("frame fetch output:\n%s", out)
	}
	// -frame-at reads its seconds exactly: a hair under half a nanosecond
	// past the run's last end rounds down onto it, a hair over rounds up
	// past it. A float64 cannot tell the two spellings apart.
	sf, err := slog.Open(slogPath)
	if err != nil {
		t.Fatal(err)
	}
	last, end := len(sf.Index)-1, sf.Index[len(sf.Index)-1].End
	sf.Close()
	at := fmt.Sprintf("%d.%09d", end/clock.Second, end%clock.Second)
	if out := runCmd(t, bin, "uteview", "-slog", slogPath, "-frame-at", at+"4999999999999999"); !strings.HasPrefix(out, fmt.Sprintf("frame %d ", last)) {
		t.Fatalf("-frame-at %s4999999999999999, the last frame's end, fetched:\n%s", at, out)
	}
	if code, msg := runCmdFail(t, bin, "uteview", "-slog", slogPath, "-frame-at", at+"5000000000000001"); code != 1 || !strings.Contains(msg, "no frame contains") {
		t.Fatalf("-frame-at %s5000000000000001, past the run: exit %d\n%s", at, code, msg)
	}
	out = runCmd(t, bin, "uteview", "-merged", merged, "-slog", slogPath, "-arrows", "-ascii")
	if !strings.Contains(out, "legend:") {
		t.Fatalf("arrows view output:\n%s", out)
	}
	htmlPath := filepath.Join(dir, "viewer.html")
	runCmd(t, bin, "uteview", "-slog", slogPath, "-html", htmlPath)
	if b, err := os.ReadFile(htmlPath); err != nil || !strings.Contains(string(b), "const DATA = {") {
		t.Fatalf("html viewer: err=%v", err)
	}

	// uteview window + connected + state view.
	out = runCmd(t, bin, "uteview", "-merged", merged, "-view", "states", "-ascii")
	if !strings.Contains(out, "state-activity view") {
		t.Fatalf("state view output:\n%s", out)
	}
	out = runCmd(t, bin, "uteview", "-merged", merged, "-t0", "0.001", "-t1", "0.01", "-connected", "-ascii")
	if !strings.Contains(out, "0.001000s .. 0.010000s") {
		t.Fatalf("windowed view output:\n%s", out)
	}

	// utestats from a program file.
	progPath := filepath.Join(dir, "prog.st")
	prog := "table name=fromfile condition=(state == \"MPI_Send\") y=(\"n\", iscall, sum)\n"
	if err := os.WriteFile(progPath, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "utestats", "-f", progPath, merged)
	if !strings.Contains(out, "fromfile") {
		t.Fatalf("utestats -f output:\n%s", out)
	}

	// utedump on every format.
	for _, f := range []string{"raw.0", "profile.ute", "merged.ute", "trace.slog"} {
		out = runCmd(t, bin, "utedump", "-n", "3", filepath.Join(dir, f))
		if len(out) == 0 {
			t.Fatalf("utedump %s produced nothing", f)
		}
	}
	out = runCmd(t, bin, "utedump", "-frames", "-n", "2", merged)
	if !strings.Contains(out, "dir 0") {
		t.Fatalf("utedump -frames output:\n%s", out)
	}
	out = runCmd(t, bin, "utedump", "-validate", merged)
	if !strings.Contains(out, "valid (") {
		t.Fatalf("utedump -validate output:\n%s", out)
	}
}

// TestCLIPyramidSidecar drives the sidecar's surface on a trace large
// enough to get one: utemerge -pyramid writes it, the same trace with
// and without it (a hard link under another name) prints the same
// preview and the same time-resolved tables while -v names the engine
// that answered, utedump reads it, and utecheck cross-validates,
// reports damage without failing, and repairs it.
func TestCLIPyramidSidecar(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	runCmd(t, bin, "tracegen", "-out", dir, "-workload", "sppm", "-nodes", "2", "-cpus", "4", "-iters", "3000", "-seed", "5")
	runCmd(t, bin, "uteconvert", "-out-dir", dir, filepath.Join(dir, "raw.0"), filepath.Join(dir, "raw.1"))
	merged, bare := filepath.Join(dir, "merged.ute"), filepath.Join(dir, "bare.ute")
	out := runCmd(t, bin, "utemerge", "-o", merged, "-pyramid",
		filepath.Join(dir, "trace.0.ute"), filepath.Join(dir, "trace.1.ute"))
	if !strings.Contains(out, "utemerge: pyramid "+merged+".pyr (") {
		t.Fatalf("utemerge -pyramid output: %s", out)
	}
	pyr := merged + ".pyr"
	if _, err := os.Stat(pyr); err != nil {
		t.Fatal("utemerge -pyramid wrote no sidecar")
	}
	if err := os.Link(merged, bare); err != nil {
		t.Fatal(err)
	}

	// The rendering must not depend on which engine ran.
	previews := [][]string{{"-bins", "50"}, {"-bins", "512", "-window", "3.5:12.25"}}
	pv := func(path, engine string, args []string) string {
		out := runCmd(t, bin, "uteview", append([]string{"-merged", path, "-preview", "-v", "-ascii"}, args...)...)
		if !strings.Contains(out, "preview answered by "+engine+" engine") || !strings.Contains(out, "preview:") {
			t.Fatalf("uteview -preview %v on %s, want the %s engine:\n%s", args, path, engine, out)
		}
		return stripDiag(out)
	}
	pyrPreviews := make([]string, len(previews))
	for i, args := range previews {
		p, s := pv(merged, "pyramid", args), pv(bare, "scan", args)
		if p != s {
			t.Fatalf("preview %v differs between engines:\n--- pyramid:\n%s\n--- scan:\n%s", args, p, s)
		}
		pyrPreviews[i] = p
	}
	tables := [][]string{{"-bins", "64"}, {"-j", "2", "-bins", "7", "-window", "3.5:12.25"}}
	tr := func(path, engine string, args []string) string {
		cmd := exec.Command(filepath.Join(bin, "utestats"), append(append([]string{"-timeresolved", "-v"}, args...), path)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("utestats -timeresolved %v %s: %v\n%s", args, path, err, stderr.String())
		}
		if n := strings.Count(stderr.String(), " summary="+engine+" "); n != 3 {
			t.Fatalf("utestats -v %v on %s names the %s engine %d times, want 3:\n%s", args, path, engine, n, stderr.String())
		}
		// Each table also names the frames the summary fetched and the
		// window's lanes: sPPM 2×4 runs one task per node.
		if n := len(regexp.MustCompile(` summary=`+engine+` frames=\d+ lanes=2 `).FindAllString(stderr.String(), -1)); n != 3 {
			t.Fatalf("utestats -v %v on %s: %d tables report frames and 2 lanes, want 3:\n%s", args, path, n, stderr.String())
		}
		return stdout.String()
	}
	pyrTables := make([]string, len(tables))
	for i, args := range tables {
		p, s := tr(merged, "pyramid", args), tr(bare, "scan", args)
		if p != s || !strings.Contains(p, "# table tr_concurrency") {
			t.Fatalf("time-resolved tables %v differ between engines:\n--- pyramid:\n%s\n--- scan:\n%s", args, p, s)
		}
		pyrTables[i] = p
	}

	if out := runCmd(t, bin, "utedump", "-n", "3", pyr); len(out) == 0 {
		t.Fatal("utedump -n 3 of the sidecar produced nothing")
	}
	out = runCmd(t, bin, "utedump", pyr)
	if !strings.Contains(out, "pyramid: base width") || !strings.Contains(out, "level  0") {
		t.Fatalf("utedump pyramid output:\n%s", out)
	}

	// Sidecar lifecycle under utecheck: a plain check cross-validates
	// it, a corrupted sidecar is reported as damaged without changing
	// the exit code, -repair-pyramid heals it, and builds a missing one.
	out = runCmd(t, bin, "utecheck", merged)
	if !strings.Contains(out, "pyramid ok (") {
		t.Fatalf("utecheck on a fresh sidecar: %s", out)
	}
	pd, err := os.ReadFile(pyr)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), pd...)
	pd[len(pd)-1] ^= 0xff
	if err := os.WriteFile(pyr, pd, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "utecheck", merged) // still exits 0: the sidecar is advisory
	if !strings.Contains(out, "valid (") || !strings.Contains(out, "pyramid damaged") {
		t.Fatalf("utecheck on corrupted sidecar: %s", out)
	}
	out = runCmd(t, bin, "utecheck", "-repair-pyramid", merged)
	if !strings.Contains(out, "pyramid rebuilt (was:") {
		t.Fatalf("utecheck -repair-pyramid (damaged sidecar): %s", out)
	}
	if err := os.Remove(pyr); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "utecheck", "-repair-pyramid", merged)
	if !strings.Contains(out, "pyramid rebuilt") {
		t.Fatalf("utecheck -repair-pyramid (absent sidecar): %s", out)
	}
	out = runCmd(t, bin, "utecheck", merged)
	if !strings.Contains(out, "pyramid ok (") {
		t.Fatalf("utecheck after healing sidecar: %s", out)
	}
	if healed, err := os.ReadFile(pyr); err != nil || !bytes.Equal(healed, pristine) {
		t.Fatalf("the rebuilt sidecar is not the one utemerge wrote (err=%v)", err)
	}

	// A sidecar of the previous format version, whose header is otherwise
	// sound (the 68-byte header's CRC-32C over bytes 8..64 recomputed),
	// fails only the version check: the scan answers, byte for byte what
	// the pyramid answered, utecheck names the cause, and -repair-pyramid
	// rewrites it in the current version.
	legacy := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(legacy[8:], 1)
	binary.LittleEndian.PutUint32(legacy[64:], crc32.Checksum(legacy[8:64], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(pyr, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, args := range previews {
		if got := pv(merged, "scan", args); got != pyrPreviews[i] {
			t.Fatalf("preview %v over a version-1 sidecar:\n%s\nwant the pyramid's:\n%s", args, got, pyrPreviews[i])
		}
	}
	for i, args := range tables {
		if got := tr(merged, "scan", args); got != pyrTables[i] {
			t.Fatalf("time-resolved tables %v over a version-1 sidecar:\n%s\nwant the pyramid's:\n%s", args, got, pyrTables[i])
		}
	}
	out = runCmd(t, bin, "utecheck", merged)
	if !strings.Contains(out, "pyramid damaged: ") || !strings.Contains(out, "unsupported pyramid version 1 (rerun with -repair-pyramid)") {
		t.Fatalf("utecheck on a version-1 sidecar: %s", out)
	}
	out = runCmd(t, bin, "utecheck", "-repair-pyramid", merged)
	if !strings.Contains(out, "pyramid rebuilt (was: ") {
		t.Fatalf("utecheck -repair-pyramid (version-1 sidecar): %s", out)
	}
	repaired, err := os.ReadFile(pyr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(repaired[8:]); v != interval.PyramidVersion || !bytes.Equal(repaired, pristine) {
		t.Fatalf("-repair-pyramid wrote version %d, not the sidecar utemerge wrote", v)
	}
	pv(merged, "pyramid", previews[0])
	tr(merged, "pyramid", tables[0])
}

// stripDiag drops uteview's stderr diagnostics from combined output so
// renderings can be compared across engines.
func stripDiag(out string) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "uteview:") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}

func TestCLIWrapTolerant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	runCmd(t, bin, "tracegen",
		"-out", dir, "-workload", "ring", "-nodes", "2", "-cpus", "1",
		"-iters", "200", "-bytes", "128", "-wrap", "-buffer", "8192")
	// Strict conversion must fail on the mid-stream trace...
	cmd := exec.Command(filepath.Join(bin, "uteconvert"), "-out-dir", dir,
		filepath.Join(dir, "raw.0"), filepath.Join(dir, "raw.1"))
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("strict conversion of wrapped trace succeeded:\n%s", out)
	}
	// ...and tolerant conversion must succeed and report skips.
	out := runCmd(t, bin, "uteconvert", "-tolerant", "-out-dir", dir,
		filepath.Join(dir, "raw.0"), filepath.Join(dir, "raw.1"))
	if !strings.Contains(out, "orphan events skipped") {
		t.Fatalf("tolerant conversion reported no skips:\n%s", out)
	}
	runCmd(t, bin, "utemerge", "-o", filepath.Join(dir, "merged.ute"),
		filepath.Join(dir, "trace.0.ute"), filepath.Join(dir, "trace.1.ute"))
}

// TestCLISummaryBudget: on a machine wide enough that the most bins a
// time-resolved table may have cost more than interval.MaxSummaryCells
// (96 lanes plus the types, at 65536 bins), utestats -timeresolved
// exits 1 with a one-line diagnostic naming the budget, while the same
// trace at 64 bins answers and utestats -v explains it. uteview's
// preview at those bins answers: it keeps no lane rows.
func TestCLISummaryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	runCmd(t, bin, "tracegen", "-out", dir, "-workload", "imbalance", "-params", "iters=1",
		"-nodes", "24", "-cpus", "4", "-tasks-per-node", "4", "-seed", "3")
	raws, _ := filepath.Glob(filepath.Join(dir, "raw.*"))
	runCmd(t, bin, "uteconvert", append([]string{"-out-dir", dir}, raws...)...)
	utes, _ := filepath.Glob(filepath.Join(dir, "trace.*.ute"))
	merged := filepath.Join(dir, "merged.ute")
	runCmd(t, bin, "utemerge", append([]string{"-o", merged}, utes...)...)

	cmd := exec.Command(filepath.Join(bin, "utestats"), "-v", "-timeresolved", "-bins", "64", merged)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("utestats -timeresolved -bins 64: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "table tr_load_balance: summary=scan frames=") ||
		!strings.Contains(stderr.String(), " lanes=96 ") {
		t.Fatalf("utestats -v does not explain the table:\n%s", stderr.String())
	}
	code, msg := runCmdFail(t, bin, "utestats", "-timeresolved", "-bins", "65536", merged)
	if code != 1 || !strings.Contains(msg, "cell budget") || strings.Count(strings.TrimSpace(msg), "\n") != 0 {
		t.Errorf("utestats -timeresolved -bins 65536: exit %d, stderr %q; want 1 and one line naming the cell budget", code, msg)
	}
	svg := filepath.Join(dir, "p.svg")
	runCmd(t, bin, "uteview", "-merged", merged, "-preview", "-bins", "65536", "-o", svg)
	if b, err := os.ReadFile(svg); err != nil || !bytes.Contains(b, []byte("<svg")) {
		t.Fatalf("uteview -preview -bins 65536 wrote no SVG: %v", err)
	}
}

// runCmdFail runs a command expecting failure and returns its exit code
// and stderr. A panic trace on stderr fails the test: CLI errors must be
// one-line diagnostics.
func runCmdFail(t *testing.T, bin, name string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v unexpectedly exited 0\nstderr: %s", name, args, stderr.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	msg := stderr.String()
	if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine ") {
		t.Fatalf("%s %v panicked:\n%s", name, args, msg)
	}
	// A diagnostic must land somewhere: usage and I/O errors on stderr,
	// utecheck's verdict one-liner on stdout.
	if strings.TrimSpace(msg) == "" && strings.TrimSpace(stdout.String()) == "" {
		t.Fatalf("%s %v failed silently (no output)", name, args)
	}
	return ee.ExitCode(), msg
}

// writeIntervalFile writes a small valid interval file under the given
// header version and returns the records it holds.
func writeIntervalFile(t testing.TB, path string, version uint32, n int) []interval.Record {
	t.Helper()
	rng := xrand.New(42)
	recs := make([]interval.Record, n)
	end := clock.Time(0)
	for i := range recs {
		end += clock.Time(rng.Int63n(int64(clock.Millisecond)))
		recs[i] = interval.Record{
			Type:   events.EvMPISend,
			Bebits: profile.Complete,
			Start:  end - clock.Time(rng.Int63n(int64(clock.Microsecond))),
			Node:   uint16(i % 2),
			Extra:  []uint64{uint64(i), 7, 0, 0, 0, 0},
		}
		recs[i].Dura = end - recs[i].Start
	}
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  version,
		FieldMask:      profile.MaskIndividual,
		Threads: []interval.ThreadEntry{
			{Task: 0, PID: 100, SysTID: 1, Node: 0, LTID: 0, Type: events.ThreadMPI},
			{Task: 1, PID: 101, SysTID: 2, Node: 1, LTID: 0, Type: events.ThreadMPI},
		},
	}
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCLIErrorPaths drives every command down its failure paths: missing
// inputs, corrupt inputs, and invalid flag values must produce a non-zero
// exit and a one-line stderr diagnostic — never a panic or a silent 0.
func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.ute")
	garbage := filepath.Join(dir, "garbage.ute")
	if err := os.WriteFile(garbage, []byte("this is no trace format at all, but long enough to peek at"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.ute")
	writeIntervalFile(t, good, interval.CurrentHeaderVersion, 64)

	// A structurally intact v4 file whose compact frame payload is
	// damaged: checks must catch varint-stream corruption, not just
	// header rot.
	badv4 := filepath.Join(dir, "badv4.ute")
	writeIntervalFile(t, badv4, interval.CurrentHeaderVersion, 64)
	corruptFirstFrame(t, badv4)

	cases := []struct {
		name string
		args []string
		code int
	}{
		{"tracegen", []string{"-out", dir, "-nodes", "0"}, 2},
		{"tracegen", []string{"-out", dir, "-nodes", "-3"}, 2},
		{"tracegen", []string{"-out", dir, "-cpus", "0"}, 2},
		{"tracegen", []string{"-out", dir, "-tasks-per-node", "-1"}, 2},
		{"tracegen", []string{"-out", dir, "-buffer", "-1"}, 2},
		{"tracegen", []string{"-out", dir, "-wrap", "-buffer", "64"}, 2},
		{"tracegen", []string{"-out", dir, "-workload", "nope"}, 2},
		{"tracegen", []string{"-out", dir, "-workload", "ring", "-params", "wat=1"}, 2},
		{"tracegen", []string{"-out", dir, "-workload", "ring", "-params", "iters=0"}, 2},
		{"tracegen", []string{"-out", dir, "-workload", "ring", "-threads", "2"}, 2},
		{"tracegen", []string{"-out", dir, "-policy", "nope"}, 2},
		{"tracegen", []string{"-out", dir, "-policy", "oversub:1"}, 2},
		{"tracegen", []string{"-out", dir, "-outlier-prob", "1.5"}, 2},

		{"utesweep", []string{"-j", "-1"}, 2},
		{"utesweep", []string{"-nodes", "0"}, 2},
		{"utesweep", []string{"-policies", ""}, 2},
		{"utesweep", []string{"-policies", "nope"}, 2},
		{"utesweep", []string{"-workloads", "nope"}, 2},
		{"utesweep", []string{"-workloads", "ring(iters=0)"}, 2},
		{"utesweep", []string{"-workloads", "ring(iters=3"}, 2},

		{"uteconvert", nil, 2},
		{"uteconvert", []string{missing}, 1},
		{"uteconvert", []string{garbage}, 1},
		{"uteconvert", []string{"-j", "-1", good}, 2},

		{"utemerge", nil, 2},
		{"utemerge", []string{"-o", filepath.Join(dir, "out.ute"), missing}, 1},
		{"utemerge", []string{"-o", filepath.Join(dir, "out.ute"), garbage}, 1},
		{"utemerge", []string{"-j", "-2", "-o", filepath.Join(dir, "out.ute"), good}, 2},
		// Retired knobs are unknown flags, not silently accepted.
		{"utemerge", []string{"-columnar", "-o", filepath.Join(dir, "out.ute"), good}, 2},

		{"utestats", nil, 2},
		{"utestats", []string{missing}, 1},
		{"utestats", []string{garbage}, 1},
		{"utestats", []string{"-j", "-1", good}, 2},
		{"utestats", []string{"-engine", "x", good}, 2},
		{"utestats", []string{"-engine", "scalar", good}, 2},
		{"utestats", []string{"-timeresolved", "-summary", "x", good}, 2},
		{"utestats", []string{"-timeresolved", "-summary", "scan", good}, 2},
		{"utestats", []string{"-window", "2:1", good}, 1},
		{"utestats", []string{"-window", "NaN:1", good}, 1},
		{"utestats", []string{"-window", "abc", good}, 1},
		{"utestats", []string{"-timeresolved", "-bins", "2000000000", good}, 2},
		{"utestats", []string{"-bins", "65537", good}, 2},
		{"utestats", []string{"-bins", "0", good}, 2},
		{"utestats", []string{"-bins", "-3", good}, 2},
		{"utestats", []string{"-timeresolved", "-bins", "-3", good}, 2},
		{"utestats", []string{"-svg", good}, 2},

		{"utedump", nil, 2},
		{"utedump", []string{missing}, 1},
		{"utedump", []string{garbage}, 1},
		{"utedump", []string{"-j", "-1", good}, 2},
		{"utedump", []string{"-window", "Inf:", good}, 1},
		{"utedump", []string{"-window", "1:0.5", good}, 1},

		{"uteview", nil, 1}, // needs -merged
		{"uteview", []string{"-merged", missing}, 1},
		{"uteview", []string{"-merged", garbage}, 1},
		{"uteview", []string{"-j", "-1", "-merged", good}, 2},
		{"uteview", []string{"-t0", "2", "-t1", "1", "-merged", good}, 2},
		// 1e10 s is past the time range: rejected, not read as the run.
		{"uteview", []string{"-merged", good, "-preview", "-bins", "8", "-t0", "0.01", "-t1", "1e10", "-ascii"}, 2},
		{"uteview", []string{"-merged", good, "-preview", "-engine", "x"}, 2},
		{"uteview", []string{"-merged", good, "-preview", "-engine", "scan"}, 2},
		{"uteview", []string{"-merged", good, "-preview", "-bins", "-1"}, 2},
		{"uteview", []string{"-merged", good, "-preview", "-bins", "65537"}, 2},
		{"uteview", []string{"-merged", good, "-preview", "-bins", "2000000000"}, 2},
		// A retired knob: the predefined tables' bin count is not settable.
		{"utetraced", []string{"-bins", "50"}, 2},
		{"uteview", []string{"-window", "2:1", "-merged", good, "-ascii"}, 1},

		{"utecheck", nil, 3},
		{"utecheck", []string{good, good}, 3},
		{"utecheck", []string{"-nosuchflag", good}, 3},
		{"utecheck", []string{missing}, 3},
		{"utecheck", []string{garbage}, 2},
		{"utecheck", []string{badv4}, 1},

		{"utedump", []string{"-validate", badv4}, 1},
	}
	for _, tc := range cases {
		code, msg := runCmdFail(t, bin, tc.name, tc.args...)
		if code != tc.code {
			t.Errorf("%s %v: exit %d, want %d\nstderr: %s", tc.name, tc.args, code, tc.code, msg)
		}
	}

	// The same valid file must pass the success paths these failures
	// bracket.
	out := runCmd(t, bin, "utecheck", good)
	if !strings.Contains(out, "valid (") {
		t.Fatalf("utecheck on a valid file: %s", out)
	}
	runCmd(t, bin, "utedump", "-n", "2", "-window", "0:1", good)
	if out := runCmd(t, bin, "utedump", "-sizes", good); !strings.Contains(out, "B/record") {
		t.Fatalf("utedump -sizes output missing statistics:\n%s", out)
	}
}

// corruptFirstFrame flips one byte inside the first frame's encoded
// record bytes, leaving every checksum and directory intact.
func corruptFirstFrame(t *testing.T, path string) {
	t.Helper()
	f, err := interval.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := f.Frames()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames to corrupt")
	}
	fl, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var b [1]byte
	if _, err := fl.ReadAt(b[:], frames[0].Offset); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := fl.WriteAt(b[:], frames[0].Offset); err != nil {
		t.Fatal(err)
	}
}

// TestCLISweep runs a small policy × workload grid end-to-end and checks
// the comparison tables are byte-identical across -j values and reruns.
func TestCLISweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)

	run := func(j int) (string, []byte) {
		out := t.TempDir()
		table := runCmd(t, bin, "utesweep",
			"-policies", "fifo,oversub",
			"-workloads", "imbalance(iters=2);bursty(waves=2,iters=2)",
			"-nodes", "2", "-cpus", "2", "-tasks-per-node", "2",
			"-seed", "7", "-j", fmt.Sprint(j), "-out", out)
		tsv, err := os.ReadFile(filepath.Join(out, "sweep.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		return table, tsv
	}

	table1, tsv1 := run(1)
	_, tsv4 := run(4)
	_, tsvAgain := run(1)

	// runCmd captures stderr too, which carries host-dependent wall-clock
	// throughput — only the written artifacts are compared byte-for-byte.
	if !bytes.Equal(tsv1, tsv4) {
		t.Errorf("sweep.tsv differs between -j 1 and -j 4:\n--- j=1\n%s--- j=4\n%s", tsv1, tsv4)
	}
	if !bytes.Equal(tsv1, tsvAgain) {
		t.Errorf("sweep.tsv differs across reruns with the same seed")
	}
	for _, want := range []string{"workload\tpolicy", "imbalance(iters=2)", "bursty(", "fifo", "oversub"} {
		if !strings.Contains(table1, want) {
			t.Errorf("sweep table missing %q:\n%s", want, table1)
		}
	}
}

// utecheckReport mirrors utecheck's -json output shape.
type utecheckReport struct {
	Valid   bool                    `json:"valid"`
	Salvage *interval.SalvageReport `json:"salvage"`
	Repair  *interval.RepairReport  `json:"repair"`
}

// TestCLICheckRepair covers the acceptance path: utecheck -repair on a
// truncated v2 file must exit 1 and write a fresh file that validates
// and carries every salvaged frame.
func TestCLICheckRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()

	pristine := filepath.Join(dir, "pristine.ute")
	writeIntervalFile(t, pristine, 2, 200)
	data, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ute")
	if err := os.WriteFile(trunc, data[:len(data)*7/10], 0o644); err != nil {
		t.Fatal(err)
	}

	repaired := filepath.Join(dir, "repaired.ute")
	cmd := exec.Command(filepath.Join(bin, "utecheck"), "-json", "-repair", repaired, trunc)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("utecheck -repair on truncated file: err=%v (want exit 1)\nstderr: %s", err, stderr.String())
	}
	var rep utecheckReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, stdout.String())
	}
	if rep.Valid || rep.Salvage == nil || rep.Repair == nil {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Salvage.FramesRecovered == 0 {
		t.Fatal("truncated file salvaged zero frames")
	}
	if rep.Repair.FramesWritten != rep.Salvage.FramesRecovered {
		t.Fatalf("repair wrote %d of %d salvaged frames",
			rep.Repair.FramesWritten, rep.Salvage.FramesRecovered)
	}

	// The repaired file must be fully valid and hold the salvaged records.
	rf, err := interval.Open(repaired)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	vrep, err := rf.Validate(nil)
	if err != nil {
		t.Fatalf("repaired file fails validation: %v", err)
	}
	if vrep.Records != rep.Salvage.RecordsRecovered {
		t.Fatalf("repaired file has %d records, salvage recovered %d",
			vrep.Records, rep.Salvage.RecordsRecovered)
	}
	out := runCmd(t, bin, "utecheck", repaired)
	if !strings.Contains(out, "valid (") {
		t.Fatalf("utecheck on repaired file: %s", out)
	}

	// A declined sidecar is a healthy trace (TestCLIPyramidSidecar has
	// the lifecycle of one that is written): a sidecar would outweigh
	// this 200-record trace, so a plain check says nothing about one,
	// and -repair-pyramid — as often as it is run — says why there is
	// none, exits 0, and writes nothing.
	pyr := pristine + ".pyr"
	declined := regexp.MustCompile(fmt.Sprintf(`valid \(.*; no pyramid: a sidecar \(\d+ bytes\) would outweigh the trace \(%d bytes\)`, len(data)))
	for i := 0; i < 2; i++ {
		out = runCmd(t, bin, "utecheck", "-repair-pyramid", pristine)
		if !declined.MatchString(out) || strings.Contains(out, "rerun") {
			t.Fatalf("utecheck -repair-pyramid on a trace too small for a sidecar: %s", out)
		}
		if _, err := os.Stat(pyr); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("a declined sidecar is on disk (stat: %v)", err)
		}
		out = runCmd(t, bin, "utecheck", pristine)
		if !strings.Contains(out, "valid (") || strings.Contains(out, "pyramid") {
			t.Fatalf("utecheck on a trace with no sidecar: %s", out)
		}
	}
	// A sidecar found on disk that outweighs its trace is what every
	// reader skips by its size alone: reported as ignored, not as damage
	// to repair, and removed by a rebuild that is declined again.
	if err := os.WriteFile(pyr, make([]byte, len(data)+1), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "utecheck", pristine)
	if !strings.Contains(out, "valid (") || strings.Contains(out, "rerun") ||
		!strings.Contains(out, fmt.Sprintf("pyramid ignored: the sidecar (%d bytes) outweighs the trace (%d bytes)", len(data)+1, len(data))) {
		t.Fatalf("utecheck on an oversized sidecar: %s", out)
	}
	out = runCmd(t, bin, "utecheck", "-repair-pyramid", pristine)
	if !declined.MatchString(out) {
		t.Fatalf("utecheck -repair-pyramid on an oversized sidecar: %s", out)
	}
	if _, err := os.Stat(pyr); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the oversized sidecar survived a declined rebuild (stat: %v)", err)
	}
}

// TestCLITraceDaemon drives utetraced end to end: start on an ephemeral
// port with a preloaded trace, parse the printed listen address, query
// the JSON and TSV endpoints over real HTTP, and shut down with SIGINT
// expecting a clean exit.
// stallHeaders opens a raw connection to a daemon and sends half a
// request line, as a client that never finishes its headers would. The
// returned check — call it after the test's well-formed requests have
// been answered — fails unless the server has closed the connection
// within its header timeout.
func stallHeaders(t *testing.T, base string) (check func()) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sent := time.Now()
	if _, err := io.WriteString(conn, "GET /v1/tra"); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		// Nothing is owed to half a request: the server may answer 4xx or
		// just hang up, but it must hang up.
		conn.SetReadDeadline(sent.Add(tracesvc.ReadHeaderTimeout + 5*time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("%s kept a connection with unfinished request headers open for %v (limit %v): %v",
				base, time.Since(sent).Round(time.Millisecond), tracesvc.ReadHeaderTimeout, err)
		}
	}
}

// idleKeepAlive opens a raw connection to a daemon, has one keep-alive
// request answered on it and leaves it idle. The returned check fails
// unless the server has closed the connection within its idle timeout.
func idleKeepAlive(t *testing.T, base string) (check func()) {
	t.Helper()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: "+addr+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("keep-alive /healthz on %s: %d, close %v", base, resp.StatusCode, resp.Close)
	}
	idle := time.Now()
	return func() {
		t.Helper()
		conn.SetReadDeadline(idle.Add(tracesvc.IdleTimeout + 5*time.Second))
		if _, err := io.Copy(io.Discard, br); err != nil {
			t.Fatalf("%s kept an idle keep-alive connection open for %v (limit %v): %v",
				base, time.Since(idle).Round(time.Millisecond), tracesvc.IdleTimeout, err)
		}
	}
}

func TestCLITraceDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.ute")
	writeIntervalFile(t, tracePath, interval.CurrentHeaderVersion, 200)

	cmd := exec.Command(filepath.Join(bin, "utetraced"), "-addr", "127.0.0.1:0", tracePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints "opened ... as t1" then "listening on http://...".
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatalf("no listen line; daemon output ended: %v", sc.Err())
	}
	stalled := stallHeaders(t, base)
	idled := idleKeepAlive(t, base)

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/v1/traces")
	if code != 200 || !strings.Contains(body, tracePath) {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Traces []struct {
			ID      string `json:"id"`
			Records int64  `json:"records"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Records != 200 {
		t.Fatalf("preloaded trace metadata: %+v", list)
	}
	id := list.Traces[0].ID

	if code, body = get("/v1/traces/" + id + "/records?count=1"); code != 200 || !strings.Contains(body, `"count": 200`) {
		t.Fatalf("records count: %d %s", code, body)
	}
	if code, body = get("/v1/traces/" + id + "/stats"); code != 200 || !strings.Contains(body, "# table") {
		t.Fatalf("stats: %d %.200s", code, body)
	}
	if code, body = get("/v1/traces/" + id + "/preview.svg"); code != 200 || !strings.HasPrefix(body, "<svg") {
		t.Fatalf("preview: %d %.200s", code, body)
	}
	if code, body = get("/metrics"); code != 200 || !strings.Contains(body, "tracesvc_traces_open 1") {
		t.Fatalf("metrics: %d %.200s", code, body)
	}
	stalled()
	idled()

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	for sc.Scan() {
		tail.WriteString(sc.Text())
		tail.WriteByte('\n')
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGINT: %v\n%s", err, tail.String())
	}
	if !strings.Contains(tail.String(), "shut down") {
		t.Fatalf("daemon did not announce shutdown:\n%s", tail.String())
	}
}

// TestCLIServingTier stands up the full horizontal serving tier as real
// processes: two utetraced backends, a uterouter splitting a preloaded
// trace across them, and a uteload run against the router. The router's
// answers must match a single backend's byte for byte, uteload must
// finish with zero errors, and every process must shut down cleanly on
// SIGINT.
func TestCLIServingTier(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.ute")
	writeIntervalFile(t, tracePath, interval.CurrentHeaderVersion, 400)

	// Flag misuse is exit 2 before anything binds.
	if code, msg := runCmdFail(t, bin, "uterouter"); code != 2 || !strings.Contains(msg, "-backends is required") {
		t.Fatalf("uterouter without -backends: exit %d, stderr %q", code, msg)
	}
	if code, msg := runCmdFail(t, bin, "uteload"); code != 2 || !strings.Contains(msg, "-url is required") {
		t.Fatalf("uteload without -url: exit %d, stderr %q", code, msg)
	}
	if code, msg := runCmdFail(t, bin, "uteload", "-url", "http://127.0.0.1:1", "-mix", "stats=x"); code != 2 || !strings.Contains(msg, "bad -mix") {
		t.Fatalf("uteload with bad -mix: exit %d, stderr %q", code, msg)
	}
	if code, msg := runCmdFail(t, bin, "uteload", "-url", "http://127.0.0.1:1", "-rate", "-5"); code != 2 || !strings.Contains(msg, "-rate") {
		t.Fatalf("uteload with a negative -rate: exit %d, stderr %q", code, msg)
	}

	// start launches one daemon binary, waits for its listen line, and
	// returns the base URL plus a stopper asserting a clean SIGINT exit.
	start := func(name string, args ...string) (base string, stop func()) {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		sc := bufio.NewScanner(stdout)
		var pre strings.Builder
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				base = addr
				break
			}
			pre.WriteString(sc.Text())
			pre.WriteByte('\n')
		}
		if base == "" {
			t.Fatalf("%s printed no listen line: %v\n%s", name, sc.Err(), pre.String())
		}
		stop = func() {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			var tail strings.Builder
			for sc.Scan() {
				tail.WriteString(sc.Text())
				tail.WriteByte('\n')
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("%s exit after SIGINT: %v\n%s", name, err, tail.String())
			}
			if !strings.Contains(tail.String(), "shut down") {
				t.Fatalf("%s did not announce shutdown:\n%s", name, tail.String())
			}
		}
		return base, stop
	}
	get := func(base, path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	b0, stop0 := start("utetraced", "-addr", "127.0.0.1:0", "-pprof")
	b1, stop1 := start("utetraced", "-addr", "127.0.0.1:0")
	// -split-frames 1 forces the trace into per-backend segments even at
	// this test's size, so scatter-gather actually runs.
	router, stopRouter := start("uterouter",
		"-addr", "127.0.0.1:0", "-backends", b0+","+b1, "-split-frames", "1", "-pprof", tracePath)
	stalled := stallHeaders(t, router)
	idled := idleKeepAlive(t, router)

	// -pprof mounts the runtime profiles on the daemon's own listener;
	// without it they are not there. The router serves its own process's
	// profiles — a router without -pprof has none, though its backend
	// does, so nothing under /debug/pprof/ is ever proxied.
	bare, stopBare := start("uterouter", "-addr", "127.0.0.1:0", "-backends", b0)
	for _, c := range []struct {
		base, daemon string
		want         int
	}{{b0, "utetraced", 200}, {b1, "", 404}, {router, "uterouter", 200}, {bare, "", 404}} {
		if code, body := get(c.base, "/debug/pprof/heap?debug=1"); code != c.want || c.want == 200 && !strings.Contains(body, "heap profile") {
			t.Fatalf("%s/debug/pprof/heap?debug=1: %d, want %d\n%.200s", c.base, code, c.want, body)
		}
		if c.daemon == "" {
			continue
		}
		if code, cmdline := get(c.base, "/debug/pprof/cmdline"); code != 200 || !strings.Contains(cmdline, c.daemon) || !strings.Contains(cmdline, "-pprof") {
			t.Fatalf("%s/debug/pprof/cmdline: %d %q, want %s's own command line", c.base, code, cmdline, c.daemon)
		}
	}
	stopBare()

	if code, body := get(router, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("router healthz: %d %q", code, body)
	}
	if code, body := get(router, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("router readyz: %d %q", code, body)
	}
	code, body := get(router, "/v1/traces")
	if code != 200 || !strings.Contains(body, tracePath) {
		t.Fatalf("router list: %d %s", code, body)
	}
	if code, body := get(router, "/v1/traces/t1/records?count=1"); code != 200 || !strings.Contains(body, `"count": 400`) {
		t.Fatalf("router records count: %d %s", code, body)
	}
	// Byte identity through real processes: the backends each hold the
	// whole trace as their own t1, so a direct backend answer is the
	// single-node reference for the router's scatter-gathered one.
	for _, q := range []string{"/records?limit=25&offset=190", "/stats", "/preview.svg"} {
		cr, br := get(router, "/v1/traces/t1"+q)
		cb, bb := get(b0, "/v1/traces/t1"+q)
		if cr != 200 || cb != 200 || br != bb {
			t.Fatalf("router vs backend mismatch on %s: %d/%d\nrouter: %.200s\nbackend: %.200s", q, cr, cb, br, bb)
		}
	}
	if code, body := get(router, "/metrics"); code != 200 ||
		!strings.Contains(body, "uterouter_ring_points") ||
		!strings.Contains(body, "uterouter_scatter_queries_total") {
		t.Fatalf("router metrics: %d %.300s", code, body)
	}

	// uteload against the router, scraping both backends' caches.
	out := runCmd(t, bin, "uteload", "-url", router, "-backends", b0+","+b1,
		"-clients", "2", "-requests", "40", "-windows", "4", "-json")
	var rep struct {
		Traces int `json:"traces"`
		Cold   struct {
			Requests int `json:"requests"`
			Errors   int `json:"errors"`
		} `json:"cold"`
		Warm struct {
			Requests int     `json:"requests"`
			Errors   int     `json:"errors"`
			QPS      float64 `json:"qps"`
			P99Ms    float64 `json:"p99_ms"`
		} `json:"warm"`
		Backends []struct {
			FramesDecoded    int64   `json:"frames_decoded"`
			FramesPerRequest float64 `json:"frames_per_request"`
			AnswerHits       int64   `json:"answer_hits"`
			Answers          int64   `json:"answers"`
			AnswerHitRatio   float64 `json:"answer_hit_ratio"`
			PartialHits      int64   `json:"partial_hits"`
			PartialMisses    int64   `json:"partial_misses"`
			PartialHitRatio  float64 `json:"partial_hit_ratio"`
		} `json:"backends"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("uteload -json output: %v\n%s", err, out)
	}
	if rep.Traces != 1 || rep.Warm.Requests != 40 || rep.Cold.Errors != 0 || rep.Warm.Errors != 0 {
		t.Fatalf("uteload report: %s", out)
	}
	if rep.Warm.QPS <= 0 || rep.Warm.P99Ms <= 0 {
		t.Fatalf("uteload reported no throughput: %s", out)
	}
	if len(rep.Backends) != 2 {
		t.Fatalf("uteload scraped %d backends, want 2: %s", len(rep.Backends), out)
	}
	// The split means both backends serve count legs for this one trace.
	// Each backend reports the frames it decoded per measured request,
	// its answer memo and its stats-partial memo, each ratio its hits
	// over what was asked.
	var answers int64
	for i, b := range rep.Backends {
		if b.Answers == 0 {
			t.Fatalf("backend %d saw no memo traffic: %s", i, out)
		}
		if b.FramesDecoded < 0 || b.FramesPerRequest != float64(b.FramesDecoded)/float64(rep.Warm.Requests) {
			t.Fatalf("backend %d frames per request: %s", i, out)
		}
		answers += b.Answers
		if b.AnswerHits > b.Answers || b.Answers > 0 && b.AnswerHitRatio != float64(b.AnswerHits)/float64(b.Answers) ||
			b.Answers == 0 && b.AnswerHitRatio != 0 {
			t.Fatalf("backend %d answer hit ratio: %s", i, out)
		}
		if asked := b.PartialHits + b.PartialMisses; asked > 0 && b.PartialHitRatio != float64(b.PartialHits)/float64(asked) ||
			asked == 0 && b.PartialHitRatio != 0 {
			t.Fatalf("backend %d partial hit ratio: %s", i, out)
		}
	}
	if answers == 0 {
		t.Fatalf("no backend counted an answer-memo asking: %s", out)
	}
	out = runCmd(t, bin, "uteload", "-url", router, "-backends", b0+","+b1,
		"-clients", "2", "-requests", "20", "-windows", "4")
	if n := strings.Count(out, "), answers +"); n != 2 || strings.Count(out, "), partials +") != 2 {
		t.Fatalf("uteload text report lacks per-backend answer and partial hit ratios:\n%s", out)
	}
	// Open loop: the same warm phase on a fixed 200/s schedule, every
	// arrival answered or reported dropped.
	out = runCmd(t, bin, "uteload", "-url", router, "-clients", "4", "-requests", "40", "-windows", "4", "-rate", "200", "-json")
	var open struct {
		Rate float64 `json:"rate"`
		Warm struct {
			Requests int `json:"requests"`
			Errors   int `json:"errors"`
			Dropped  int `json:"dropped"`
		} `json:"warm"`
	}
	if err := json.Unmarshal([]byte(out), &open); err != nil {
		t.Fatalf("uteload -rate -json output: %v\n%s", err, out)
	}
	if open.Rate != 200 || open.Warm.Requests != 40 || open.Warm.Errors != 0 || open.Warm.Dropped >= 40 {
		t.Fatalf("uteload open-loop report: %s", out)
	}

	stalled()
	idled()
	stopRouter()
	stop1()
	stop0()
}

// TestCLITraceDaemonIngest covers the utetraced streaming-ingest flags:
// flag misuse exits 2, an unusable -ingest-dir exits 1 before the socket
// binds, a daemon without -ingest-dir serves 403 on the ingest endpoints,
// and an enabled daemon enforces trace-name validation and the batch
// size cap over real HTTP, then drains cleanly on SIGINT.
func TestCLITraceDaemonIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildCmds(t)

	// Flag misuse: a non-positive batch cap is a usage error (exit 2).
	for _, v := range []string{"0", "-5"} {
		code, msg := runCmdFail(t, bin, "utetraced", "-ingest-max-batch", v)
		if code != 2 || !strings.Contains(msg, "-ingest-max-batch must be positive") {
			t.Fatalf("-ingest-max-batch %s: exit %d, stderr %q", v, code, msg)
		}
	}
	// A missing ingest directory is a startup error (exit 1): the daemon
	// refuses to run rather than silently disabling the write path.
	code, msg := runCmdFail(t, bin, "utetraced",
		"-ingest-dir", filepath.Join(t.TempDir(), "does-not-exist"))
	if code != 1 || !strings.Contains(msg, "utetraced:") {
		t.Fatalf("bad -ingest-dir: exit %d, stderr %q", code, msg)
	}

	// start launches a daemon, waits for the listen line, and returns the
	// base URL, the startup lines printed before it, and a stopper that
	// SIGINTs and asserts a clean, announced shutdown.
	start := func(args ...string) (base, head string, stop func()) {
		cmd := exec.Command(filepath.Join(bin, "utetraced"), args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		sc := bufio.NewScanner(stdout)
		var pre strings.Builder
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				base = addr
				break
			}
			pre.WriteString(sc.Text())
			pre.WriteByte('\n')
		}
		if base == "" {
			t.Fatalf("no listen line; daemon output ended: %v\n%s", sc.Err(), pre.String())
		}
		stop = func() {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			var tail strings.Builder
			for sc.Scan() {
				tail.WriteString(sc.Text())
				tail.WriteByte('\n')
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("daemon exit after SIGINT: %v\n%s", err, tail.String())
			}
			if !strings.Contains(tail.String(), "shut down") {
				t.Fatalf("daemon did not announce shutdown:\n%s", tail.String())
			}
		}
		return base, pre.String(), stop
	}
	post := func(base, path string, body []byte) (int, string) {
		resp, err := http.Post(base+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// Without -ingest-dir every ingest endpoint is a 403, read and write.
	base, _, stop := start("-addr", "127.0.0.1:0")
	if resp, err := http.Get(base + "/v1/ingest"); err != nil || resp.StatusCode != 403 {
		t.Fatalf("ingest list on disabled daemon: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if code, body := post(base, "/v1/ingest/run?op=begin&nodes=1", nil); code != 403 {
		t.Fatalf("begin on disabled daemon: %d %s", code, body)
	}
	stop()

	// Enabled daemon with a deliberately small batch cap.
	liveDir := t.TempDir()
	base, head, stop := start("-addr", "127.0.0.1:0",
		"-ingest-dir", liveDir, "-ingest-max-batch", "4096")
	if !strings.Contains(head, "ingest enabled") {
		t.Fatalf("enabled daemon did not announce ingest:\n%s", head)
	}
	if code, body := post(base, "/v1/ingest/.hidden?op=begin&nodes=1", nil); code != 400 {
		t.Fatalf("begin with bad trace name: %d %s", code, body)
	}
	code, body := post(base, "/v1/ingest/live?op=begin&nodes=1", nil)
	if code != 201 || !strings.Contains(body, `"live"`) {
		t.Fatalf("begin: %d %s", code, body)
	}
	if code, body := post(base, "/v1/ingest/live?node=0&seq=0", make([]byte, 5000)); code != 413 {
		t.Fatalf("oversized batch: %d %s", code, body)
	}
	if resp, err := http.Get(base + "/v1/ingest"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("ingest list: %v %v", resp, err)
	} else {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), `"live"`) {
			t.Fatalf("session missing from list: %s", b)
		}
	}
	// SIGINT with the session still gathering: shutdown must drain it and
	// still announce a clean exit.
	stop()
}
