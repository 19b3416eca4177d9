package stats_test

// FuzzCompile throws arbitrary program text at the parser, the kernel
// compiler, and both evaluation engines over a small in-memory fixture:
// nothing may panic, the compiler never refuses a program that parses
// (compileProgram has no failure result, so every parsed program is
// compared), both engines fail on the same programs, and wherever they
// run they agree byte for byte.

import (
	"sync"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/stats"
)

var (
	fuzzOnce sync.Once
	fuzzFile *interval.File
	fuzzErr  error
)

// fuzzFixture builds one small mixed-type interval file per fuzz
// process (no testing.T: fuzz workers share it across executions).
func fuzzFixture() (*interval.File, error) {
	fuzzOnce.Do(func() {
		hdr := interval.Header{
			ProfileVersion: profile.StdVersion,
			HeaderVersion:  interval.CurrentHeaderVersion,
			FieldMask:      profile.MaskIndividual,
			Threads: []interval.ThreadEntry{
				{Task: 0, PID: 1, SysTID: 1, Node: 0, LTID: 0, Type: events.ThreadMPI},
				{Task: 1, PID: 2, SysTID: 2, Node: 1, LTID: 0, Type: events.ThreadMPI},
			},
			Markers: map[uint64]string{1: "phase"},
		}
		sb := interval.NewSeekBuffer()
		w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{FrameBytes: 512, FramesPerDir: 2})
		if err != nil {
			fuzzErr = err
			return
		}
		for i := 0; i < 120; i++ {
			r := interval.Record{
				Bebits: profile.Complete,
				Start:  clock.Time(i) * clock.Millisecond,
				Dura:   clock.Time(1+i%7) * clock.Millisecond / 2,
				CPU:    uint16(i % 3),
				Node:   uint16(i % 2),
				Thread: uint16(i % 2),
			}
			switch {
			case i%12 == 11:
				// Marker states, so markername groups real codes: id 1 is in
				// the table, ids 0 and 2 are not.
				r.Type = events.EvMarkerState
				r.Extra = []uint64{uint64(i % 3), uint64(i), uint64(i + 1)}
			case i%3 == 0:
				r.Type = events.EvRunning
			case i%3 == 1:
				r.Type = events.EvMPISend
				r.Extra = []uint64{uint64(1 - i%2), uint64(i), uint64(100 * i), uint64(i + 1), 1, 0}
			default:
				r.Type = events.EvMPIBarrier
				r.Extra = []uint64{1, 0}
			}
			if err := w.Add(&r); err != nil {
				fuzzErr = err
				return
			}
		}
		if err := w.Close(); err != nil {
			fuzzErr = err
			return
		}
		fuzzFile, fuzzErr = interval.NewFile(interval.NewSeekBufferFrom(sb.Bytes()))
	})
	return fuzzFile, fuzzErr
}

func FuzzCompile(f *testing.F) {
	f.Add(`table name=t y=("n", dura, count)`)
	f.Add(`table name=t condition=(state == "Running") x=("n", node) y=("t", dura, sum)`)
	f.Add(`table name=t x=("b", bin(start, 8)) y=("t", dura / (dura + 1), avg)`)
	f.Add(`table name=t condition=(msgSizeSent > 0 && peer == 1) y=("b", msgSizeSent, sum)`)
	f.Add(`table name=t x=("m", markername) y=("n", dura, count)`)
	f.Add(`table name=t condition=(markername < state || !markername) x=("m", markername) x=("b", bebits) y=("n", dura, count)`)
	f.Add(`table name=t y=("n", floor(msgSizeSent), sum)`)
	f.Add(`table name=t y=("r", dura % 0, max)`)
	f.Add(`table name=t x=("c", markername + "/" + (state + bebits)) y=("n", dura, count)`)
	f.Add(`table name=t condition=(state + "" == "Running" && bebits + markername) x=("c", "a" + "b") y=("n", dura, count)`)
	f.Add(`table name=t y=("s", state + "!", sum)`)
	f.Add(`table name=t condition=(state == 1) y=("n", dura, count)`)
	f.Add(`table name=t x=("x", markername + 1) y=("n", dura, count)`)
	f.Add(`table name=t x=("x", state - bebits) y=("n", dura, count)`)
	f.Add(`table name=t y=("n", -state, count)`)
	f.Add(`table name=t x=("x", bin(state, 4)) y=("n", dura, count)`)
	f.Add(`table name=t y=("n", floor(state), sum)`)
	f.Add(`table name=t y=("n", abs(markername), sum)`)
	f.Add(`table name=t y=("n", nosuchfn(dura), sum)`)
	f.Add(`table name=t x=("x", bin(start)) y=("n", dura, count)`)
	f.Add(`table name=t y=("n", floor(), sum)`)
	f.Add(`table name=t condition=(msgSizeSent > 1000000000 && -state) y=("n", dura, count)`)
	f.Add(`table name=t condition=(0 && nosuchfn(1)) y=("n", dura, count)`)
	f.Add(stats.Predefined(4))
	for _, p := range []string{signedZeroY, infNaNY, cancelY, mixedY} {
		f.Add(p)
	}
	// Several tables sharing subexpressions: skipping extras, coded
	// predicates, the logic over them, and a division each table guards
	// differently (never shared: it raises).
	f.Add(`table name=a condition=(msgSizeSent > 0) x=("p", peer) y=("b", msgSizeSent, sum)
table name=b condition=(peer == 1 || msgSizeSent > 100) x=("n", node) y=("b", msgSizeSent, avg)`)
	f.Add(`table name=a condition=(state != "Running" && state != "MPI_Send") x=("s", state) y=("t", dura * 2, sum)
table name=b condition=(!(state != "Running") || bebits == "complete") x=("v", state == "Running") x=("ic", iscall) y=("t", dura * 2, max)`)
	f.Add(`table name=a condition=(node != 1) y=("r", dura / (node - 1), sum)
table name=b condition=(node == 1 && cpu > 1) x=("b", bin(start, 8)) x=("t", thread) y=("r", dura / (node - 1), sum)`)
	f.Fuzz(func(t *testing.T, program string) {
		if len(program) > 4096 {
			return
		}
		specs, err := stats.Parse(program)
		if err != nil {
			return
		}
		mf, err := fuzzFixture()
		if err != nil {
			t.Skip(err)
		}
		files := []*interval.File{mf}
		st, sErr := stats.GenerateSpecsScalar(specs, files, interval.MapOptions{})
		ct, cErr := stats.GenerateOpts(program, files, interval.MapOptions{})
		if (sErr == nil) != (cErr == nil) {
			t.Fatalf("engines disagree on error for %q:\n  scalar:   %v\n  columnar: %v", program, sErr, cErr)
		}
		if sErr != nil {
			return
		}
		if renderBits(st) != renderBits(ct) {
			t.Fatalf("engines diverge for %q", program)
		}
	})
}
