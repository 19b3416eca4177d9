// Command utedump inspects the framework's file formats: raw trace
// files, description profiles, interval files (header, thread table,
// marker table, frame directories, records), SLOG files, and summary
// pyramid sidecars. The file kind is detected from the magic.
//
// Usage:
//
//	utedump [-n LIMIT] [-frames] [-sizes] [-j N] [-window lo:hi] FILE
//
// For interval files, -window lo:hi (seconds; either side may be empty)
// dumps only records overlapping the window — frames, and on
// current-format files whole directories, outside it are never decoded —
// and -j decodes frames on N workers (output is identical for every -j).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
	"tracefw/internal/trace"
)

func main() {
	var (
		limit    = flag.Int("n", 20, "maximum records to print (0 = all)")
		frames   = flag.Bool("frames", false, "print frame directory structure of interval files")
		validate = flag.Bool("validate", false, "check an interval file's structural invariants against the standard profile")
		sizes    = flag.Bool("sizes", false, "print per-frame encoded size statistics of an interval file")
		jobs     = flag.Int("j", 1, "frame-decode workers for interval record dumps (0 = GOMAXPROCS)")
		window   = flag.String("window", "", "dump only interval records overlapping lo:hi (seconds)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "utedump: need exactly one file")
		os.Exit(2)
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "utedump: -j must be >= 0")
		os.Exit(2)
	}
	path := flag.Arg(0)
	magic, err := peekMagic(path)
	if err != nil {
		fatal(err)
	}
	switch magic {
	case "UTRAW1\x00\x00":
		dumpRaw(path, *limit)
	case "UTEIVL1\x00":
		if *validate {
			validateInterval(path)
			return
		}
		if *sizes {
			sizesInterval(path)
			return
		}
		dumpInterval(path, *limit, *frames, *jobs, *window)
	case "UTEPROF1":
		dumpProfile(path)
	case "UTESLOG1":
		dumpSlog(path, *limit)
	case "UTEPYR1\x00":
		dumpPyramid(path, *limit)
	default:
		fatal(fmt.Errorf("%s: unknown magic %q", path, magic))
	}
}

func peekMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var b [8]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return "", err
	}
	return string(b[:]), nil
}

func dumpRaw(path string, limit int) {
	rd, err := trace.OpenFile(path)
	if err != nil {
		fatal(err)
	}
	defer rd.Close()
	fmt.Printf("raw trace: node %d, %d cpus, enabled mask %#x\n",
		rd.Info.Node, rd.Info.NumCPUs, rd.Info.Enabled)
	n := 0
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		n++
		if limit == 0 || n <= limit {
			str := ""
			if r.Str != "" {
				str = fmt.Sprintf(" %q", r.Str)
			}
			fmt.Printf("  %10d  t%-3d %-14s %-6s %v%s\n",
				r.Time, r.TID, r.Type.Name(), r.Edge, r.Args, str)
		}
	}
	fmt.Printf("total: %d records\n", n)
}

func dumpInterval(path string, limit int, frames bool, jobs int, window string) {
	f, err := interval.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	h := f.Header
	fmt.Printf("interval file: profile %#x, header v%d, mask %#x, %d threads, %d markers\n",
		h.ProfileVersion, h.HeaderVersion, h.FieldMask, len(h.Threads), len(h.Markers))
	for _, te := range h.Threads {
		fmt.Printf("  thread n%d/t%d task=%d pid=%d systid=%d type=%s\n",
			te.Node, te.LTID, te.Task, te.PID, te.SysTID, events.ThreadTypeName(int(te.Type)))
	}
	for id, s := range h.Markers {
		fmt.Printf("  marker %d = %q\n", id, s)
	}
	if frames {
		dirs, err := f.Dirs()
		if err != nil {
			fatal(err)
		}
		for di, d := range dirs {
			fmt.Printf("  dir %d @%d (prev %d, next %d): %d frames, %d records, [%v .. %v]\n",
				di, d.Offset, d.Prev, d.Next, len(d.Entries), d.Records, d.Start, d.End)
			for fi, fe := range d.Entries {
				fmt.Printf("    frame %d @%d: %dB, %d records, [%v .. %v]\n",
					fi, fe.Offset, fe.Bytes, fe.Records, fe.Start, fe.End)
			}
		}
	}
	first, last, total, err := f.Stats()
	if err != nil {
		fatal(err)
	}
	mopts := interval.MapOptions{Parallel: jobs}
	if window != "" {
		lo, hi, err := clock.ParseWindow(window)
		if err != nil {
			fatal(err)
		}
		mopts.Window, mopts.Lo, mopts.Hi = true, lo, hi
	}
	n := 0
	err = interval.MapFrames([]*interval.File{f}, mopts,
		func(_ int, fr *interval.Frame) (*interval.Batch, error) { return fr.Batch() },
		func(_ int, _ interval.FrameEntry, b *interval.Batch) error {
			for ri := 0; ri < b.N; ri++ {
				r := b.Row(ri)
				if mopts.Window && (r.End() < mopts.Lo || r.Start > mopts.Hi) {
					continue
				}
				n++
				if limit == 0 || n <= limit {
					fmt.Printf("  %v extras=%v\n", r, r.Extra)
				}
			}
			return nil
		})
	if err != nil {
		fatal(err)
	}
	if mopts.Window {
		fmt.Printf("total: %d records in window (dirs say %d overall), span [%v .. %v], %d frames decoded\n",
			n, total, first, last, f.DecodedFrames())
		return
	}
	fmt.Printf("total: %d records (dirs say %d), span [%v .. %v]\n", n, total, first, last)
}

// sizesInterval reports how many bytes each frame's record encoding
// occupies on disk — the number the version-4 compact encoding exists
// to shrink. Per frame: encoded bytes, record count, bytes per record;
// then file-wide totals.
func sizesInterval(path string) {
	f, err := interval.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	frames, err := f.Frames()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("interval file: header v%d, %d frames\n", f.Header.HeaderVersion, len(frames))
	var bytes, records int64
	for i, fe := range frames {
		bytes += int64(fe.Bytes)
		records += int64(fe.Records)
		per := 0.0
		if fe.Records > 0 {
			per = float64(fe.Bytes) / float64(fe.Records)
		}
		fmt.Printf("  frame %4d @%d: %6dB %5d records  %6.1f B/record\n",
			i, fe.Offset, fe.Bytes, fe.Records, per)
	}
	per := 0.0
	if records > 0 {
		per = float64(bytes) / float64(records)
	}
	fmt.Printf("total: %dB of frame data, %d records, %.1f B/record (file is %dB)\n",
		bytes, records, per, f.Size)
}

// validateInterval runs the full structural check: directory links,
// frame metadata vs records, end-time ordering, and per-record layout
// against the standard profile.
func validateInterval(path string) {
	f, err := interval.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rep, err := f.Validate(profile.Standard())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: valid (%d records in %d frames, %d directories)\n",
		path, rep.Records, rep.Frames, rep.Dirs)
}

func dumpProfile(path string) {
	fp, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer fp.Close()
	p, err := profile.Read(fp)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("profile: version %#x, %d record specifications\n", p.Version, len(p.Specs))
	for _, s := range p.Specs {
		fmt.Printf("  %s/%s (%d fields):", s.Name, s.Bebits, len(s.Fields))
		for _, f := range s.Fields {
			v := ""
			if f.Vector {
				v = fmt.Sprintf("[]c%d", f.CounterLen)
			}
			fmt.Printf(" %s:%s%d%s/a%x", f.Name, typeName(f.Type), f.ElemLen, v, f.Attr)
		}
		fmt.Println()
	}
}

func typeName(t profile.DataType) string {
	switch t {
	case profile.Uint:
		return "u"
	case profile.Int:
		return "i"
	case profile.Float:
		return "f"
	case profile.Bytes:
		return "b"
	}
	return "?"
}

func dumpSlog(path string, limit int) {
	f, err := slog.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Printf("slog: [%v .. %v], %d bins, %d states, %d frames, %d threads, %d markers\n",
		f.TStart, f.TEnd, f.Bins, len(f.States), len(f.Index), len(f.Threads), len(f.Markers))
	var dur clock.Time
	for si, ty := range f.Preview.States {
		var tot clock.Time
		for _, d := range f.Preview.Dur[si] {
			tot += d
		}
		dur += tot
		if tot > 0 {
			fmt.Printf("  state %-14s: %8d calls, %v total\n", ty.Name(), f.Preview.Count[si], tot)
		}
	}
	shown := 0
	for i, fe := range f.Index {
		if limit != 0 && shown >= limit {
			break
		}
		shown++
		fmt.Printf("  frame %3d @%d: %dB, %d records, [%v .. %v]\n",
			i, fe.Offset, fe.Bytes, fe.Records, fe.Start, fe.End)
	}
}

// dumpPyramid prints a summary-pyramid sidecar: geometry, source
// signature, per-level cell counts, and the first non-empty base
// cells. The sidecar alone cannot be checked against its trace here;
// utecheck cross-validates the pair.
func dumpPyramid(path string, limit int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	p, err := interval.DecodePyramid(data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pyramid: base width %v, %d levels; source sig: %d records, %d frames, [%v .. %v], dirsum %08x\n",
		p.BaseWidth, len(p.Levels), p.Sig.Records, p.Sig.Frames, p.Sig.Start, p.Sig.End, p.Sig.DirSum)
	for li, lv := range p.Levels {
		fmt.Printf("  level %2d: width %12v, cells [%d .. %d)\n",
			li, lv.Width, lv.First, lv.First+int64(len(lv.Cells)))
	}
	if len(p.Levels) == 0 {
		return
	}
	base := p.Levels[0]
	shown := 0
	for i := range base.Cells {
		c := &base.Cells[i]
		if len(c.ByType) == 0 {
			continue
		}
		if limit != 0 && shown >= limit {
			break
		}
		shown++
		var busy clock.Time
		for _, tb := range c.ByType {
			busy += tb.Busy
		}
		idx := base.First + int64(i)
		fmt.Printf("  cell %6d @%v: peak %2d, %2d types, %2d lanes, %v busy\n",
			idx, clock.Time(idx)*base.Width, c.MaxConc, len(c.ByType), len(c.ByLane), busy)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utedump:", err)
	os.Exit(1)
}
