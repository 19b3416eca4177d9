package interval

import (
	"fmt"
	"reflect"
	"testing"

	"tracefw/internal/faultfs"
)

// The differential fault-injection harness: for every seeded fault
// (truncation, bit flip, torn-zeroed range) against every header
// version, salvage must
//
//  1. never panic,
//  2. recover every frame the fault did not touch (completeness), and
//  3. emit no frame or record absent from the pristine file
//     (soundness).
//
// "Touched" means the fault's byte range intersects the frame's
// payload, its directory entry, or its directory's header — damage to
// any of those legitimately costs the frame. For v1/v2, bit flips are
// drawn from the metadata regions only (directory headers and entry
// tables): those layouts carry no payload checksums, so a payload flip
// that still decodes is undetectable by design (the reason v3 exists).
// On v3 and v4 the flips range over the whole body, payload included —
// on v4 that also exercises the compact frame encoding's own decode
// validation underneath the CRC.

// pristineFile is the undamaged oracle a scenario compares against.
type pristineFile struct {
	bytes  []byte
	frames []FrameEntry
	// records[i] are the decoded records of frames[i].
	records [][]Record
	// critical[i] lists the byte ranges whose damage may cost frame i.
	critical [][]faultfs.Range
	// metadata lists every directory-header and entry-table range (the
	// v1/v2 bit-flip target set).
	metadata []faultfs.Range
	firstDir int64
}

func buildPristine(t *testing.T, version uint32, seed uint64, n int) *pristineFile {
	t.Helper()
	sb, _ := writeRandomFile(t, seed, n, version)
	p := &pristineFile{bytes: append([]byte(nil), sb.Bytes()...)}
	f := openFile(t, sb)
	p.firstDir = f.FirstDir
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	hdrSize := int64(dirHeaderSize(version))
	esz := int64(entrySize(version))
	for _, d := range dirs {
		hdrRange := faultfs.Range{Off: d.Offset, Len: hdrSize}
		p.metadata = append(p.metadata,
			hdrRange,
			faultfs.Range{Off: d.Offset + hdrSize, Len: int64(len(d.Entries)) * esz})
		for i, fe := range d.Entries {
			recs, err := f.FrameRecords(fe)
			if err != nil {
				t.Fatal(err)
			}
			p.frames = append(p.frames, fe)
			p.records = append(p.records, recs)
			p.critical = append(p.critical, []faultfs.Range{
				hdrRange,
				{Off: d.Offset + hdrSize + int64(i)*esz, Len: esz},
				{Off: fe.Offset, Len: int64(fe.Bytes)},
			})
		}
	}
	return p
}

// touched reports which pristine frames the fault may legitimately
// cost.
func (p *pristineFile) touched(f faultfs.Fault) []bool {
	out := make([]bool, len(p.frames))
	for i, crit := range p.critical {
		for _, r := range crit {
			if f.Range.Overlaps(r.Off, r.Len) {
				out[i] = true
				break
			}
		}
	}
	return out
}

// checkScenario salvages damaged bytes and verifies the differential
// properties against the pristine oracle.
func checkScenario(t *testing.T, p *pristineFile, damaged []byte, fault faultfs.Fault, label string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: salvage panicked: %v", label, r)
		}
	}()
	f, err := NewFile(NewSeekBufferFrom(damaged))
	if err != nil {
		// The fixed header / tables region is before FirstDir and is
		// never damaged by the harness, so open must succeed.
		t.Fatalf("%s: header no longer readable: %v", label, err)
	}
	sv := f.Salvage()

	touched := p.touched(fault)
	byOffset := map[int64]int{}
	for i, fe := range p.frames {
		byOffset[fe.Offset] = i
	}
	recovered := map[int64]bool{}
	for _, fe := range sv.Frames {
		i, ok := byOffset[fe.Offset]
		if !ok || p.frames[i] != fe {
			t.Fatalf("%s: salvage emitted frame %+v absent from the pristine file", label, fe)
		}
		recovered[fe.Offset] = true
		recs, err := f.FrameRecords(fe)
		if err != nil {
			t.Fatalf("%s: recovered frame at %d unreadable: %v", label, fe.Offset, err)
		}
		if !reflect.DeepEqual(recs, p.records[i]) {
			// Pre-checksum layouts cannot detect payload damage that
			// happens to parse consistently (the reason v3 exists), so
			// divergence is tolerated there for frames the fault touched.
			if f.Header.HeaderVersion >= 3 || !touched[i] {
				t.Fatalf("%s: frame at %d: records differ from pristine", label, fe.Offset)
			}
		}
	}
	for i, fe := range p.frames {
		if !touched[i] && !recovered[fe.Offset] {
			t.Fatalf("%s: frame at %d untouched by %v but not recovered (report %+v)",
				label, fe.Offset, fault, sv.Report)
		}
	}
}

// TestSalvageDifferential runs ≥ 200 seeded fault scenarios per header
// version: one-third truncations, one-third torn (zeroed) ranges,
// one-third bit flips.
func TestSalvageDifferential(t *testing.T) {
	const perKind = 70
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		version := version
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			p := buildPristine(t, version, 1000+uint64(version), 700)
			body := int64(len(p.bytes)) - p.firstDir

			for seed := uint64(0); seed < perKind; seed++ {
				in := faultfs.New(seed*3 + uint64(version))
				damaged, fault := in.Truncate(p.bytes, p.firstDir)
				checkScenario(t, p, damaged, fault, fmt.Sprintf("v%d truncate seed %d", version, seed))
			}
			for seed := uint64(0); seed < perKind; seed++ {
				in := faultfs.New(seed*7 + 100 + uint64(version))
				damaged, fault := in.TearZero(p.bytes, p.firstDir, body/4)
				checkScenario(t, p, damaged, fault, fmt.Sprintf("v%d tear seed %d", version, seed))
			}
			for seed := uint64(0); seed < perKind; seed++ {
				in := faultfs.New(seed*11 + 200 + uint64(version))
				var damaged []byte
				var fault faultfs.Fault
				if version >= 3 {
					// Checksummed layout: flip anywhere in the body.
					damaged, fault = in.FlipBit(p.bytes, p.firstDir)
				} else {
					// No payload checksums: flip inside directory metadata,
					// where corruption is detectable.
					r := p.metadata[seed%uint64(len(p.metadata))]
					for r.Len == 0 {
						seed++
						r = p.metadata[seed%uint64(len(p.metadata))]
					}
					damaged, fault = in.FlipBitIn(p.bytes, r.Off, r.Off+r.Len)
				}
				checkScenario(t, p, damaged, fault, fmt.Sprintf("v%d flip seed %d", version, seed))
			}
		})
	}
}

// TestSalvageTornWriterCrash simulates a writer killed mid-run: records
// stream through a TornWriter whose horizon drops the tail, with no
// Close. Every directory whose header, entries, and frames landed
// fully below the horizon must salvage; nothing not in the clean
// reference file may appear.
func TestSalvageTornWriterCrash(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		// Clean reference: identical records, graceful Close.
		refBuf, _ := writeRandomFile(t, 31, 700, version)
		ref := openFile(t, refBuf)
		refDirs, err := ref.Dirs()
		if err != nil {
			t.Fatal(err)
		}
		refRecs := map[int64][]Record{}
		for _, d := range refDirs {
			for _, fe := range d.Entries {
				rs, err := ref.FrameRecords(fe)
				if err != nil {
					t.Fatal(err)
				}
				refRecs[fe.Offset] = rs
			}
		}
		size := int64(len(refBuf.Bytes()))
		for _, frac := range []int64{2, 3, 5, 7} {
			horizon := size * (frac - 1) / frac
			tw := faultfs.NewTornWriter(horizon)
			hdr := testHeader()
			hdr.HeaderVersion = version
			w, err := NewWriter(tw, hdr, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
			if err != nil {
				t.Fatal(err)
			}
			_, recs := writeRandomFile(t, 31, 700, version) // regenerate the same records
			for i := range recs {
				if err := w.Add(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// No Close: the process died.

			f, err := NewFile(NewSeekBufferFrom(tw.Bytes()))
			if err != nil {
				t.Fatalf("v%d horizon %d: header unreadable: %v", version, horizon, err)
			}
			sv := f.Salvage()
			// Soundness: every recovered frame must exist in the clean file
			// with identical records. (The torn file's frame offsets match
			// the reference: same records, same options.)
			for _, fe := range sv.Frames {
				want, ok := refRecs[fe.Offset]
				if !ok {
					t.Fatalf("v%d horizon %d: salvage invented frame at %d", version, horizon, fe.Offset)
				}
				got, err := f.FrameRecords(fe)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("v%d horizon %d: frame at %d differs from reference (%v)", version, horizon, fe.Offset, err)
				}
			}
			// Completeness: directories entirely below the horizon (header,
			// entries, frames, all but the final flushed group whose next
			// link points into the void) must be recovered.
			recovered := map[int64]bool{}
			for _, fe := range sv.Frames {
				recovered[fe.Offset] = true
			}
			for _, d := range refDirs {
				ext := d.Offset + int64(dirHeaderSize(version)) + int64(len(d.Entries)*entrySize(version))
				for _, fe := range d.Entries {
					if e := fe.Offset + int64(fe.Bytes); e > ext {
						ext = e
					}
				}
				if ext > horizon {
					continue
				}
				for _, fe := range d.Entries {
					if !recovered[fe.Offset] {
						t.Fatalf("v%d horizon %d: frame at %d below the horizon not recovered (report %+v)",
							version, horizon, fe.Offset, sv.Report)
					}
				}
			}
			if !sv.Report.Truncated && sv.Report.Clean() {
				t.Fatalf("v%d horizon %d: crash not reflected in report %+v", version, horizon, sv.Report)
			}
		}
	}
}

// TestSalvageBadSectors: unreadable sectors (media errors) must behave
// like any other damage — frames outside the poisoned ranges survive.
func TestSalvageBadSectors(t *testing.T) {
	p := buildPristine(t, CurrentHeaderVersion, 77, 600)
	for seed := uint64(0); seed < 20; seed++ {
		rng := faultfs.New(seed)
		_, fault := rng.TearZero(p.bytes, p.firstDir, int64(len(p.bytes))/8)
		bad := fault.Range
		f, err := NewFile(faultfs.NewBadSector(p.bytes, bad))
		if err != nil {
			t.Fatal(err)
		}
		sv := f.Salvage()
		touched := p.touched(faultfs.Fault{Kind: faultfs.TearZero, Range: bad})
		recovered := map[int64]bool{}
		for _, fe := range sv.Frames {
			recovered[fe.Offset] = true
		}
		for i, fe := range p.frames {
			if !touched[i] && !recovered[fe.Offset] {
				t.Fatalf("seed %d: frame at %d clear of bad sector %+v not recovered", seed, fe.Offset, bad)
			}
			if touched[i] && recovered[fe.Offset] {
				// A frame overlapping a bad sector can never be verified.
				t.Fatalf("seed %d: frame at %d overlapping bad sector %+v recovered", seed, fe.Offset, bad)
			}
		}
	}
}
