package interval

import (
	"fmt"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/profile"
)

// ValidationReport summarizes a Validate pass.
type ValidationReport struct {
	Records int64
	Frames  int
	Dirs    int
}

// Validate walks an entire interval file and checks its structural
// invariants: frame directory links are consistent in both directions,
// every frame's byte size, record count and time bounds match its
// records, records are in ascending end-time order across the whole
// file, and (when a profile is supplied) every record matches its
// specification exactly. It returns a report on success.
func (f *File) Validate(p *profile.Profile) (*ValidationReport, error) {
	rep := &ValidationReport{}
	if p != nil && p.Version != f.Header.ProfileVersion {
		return nil, fmt.Errorf("interval: file profile version %#x does not match profile %#x",
			f.Header.ProfileVersion, p.Version)
	}
	dirs, err := f.Dirs()
	if err != nil {
		return nil, err
	}
	rep.Dirs = len(dirs)
	for i, d := range dirs {
		if i == 0 && d.Prev != 0 {
			return nil, fmt.Errorf("interval: first directory has prev %d", d.Prev)
		}
		if i > 0 && d.Prev != dirs[i-1].Offset {
			return nil, fmt.Errorf("interval: directory %d prev %d, want %d", i, d.Prev, dirs[i-1].Offset)
		}
		if i < len(dirs)-1 && d.Next != dirs[i+1].Offset {
			return nil, fmt.Errorf("interval: directory %d next %d, want %d", i, d.Next, dirs[i+1].Offset)
		}
		if i == len(dirs)-1 && d.Next != 0 {
			return nil, fmt.Errorf("interval: last directory has next %d", d.Next)
		}
		// Header-version-2 files store aggregate bounds in the directory
		// header (ReadFrameDir reconstructs them for v1, so they are
		// self-consistent by construction there); check them against the
		// entries they summarize.
		if f.Header.HeaderVersion >= 2 && len(d.Entries) > 0 {
			lo, hi := d.Entries[0].Start, d.Entries[0].End
			var n int64
			for _, fe := range d.Entries {
				if fe.Start < lo {
					lo = fe.Start
				}
				if fe.End > hi {
					hi = fe.End
				}
				n += int64(fe.Records)
			}
			if d.Start != lo || d.End != hi || d.Records != n {
				return nil, fmt.Errorf("interval: directory %d aggregates [%d %d] %d records, entries say [%d %d] %d",
					i, d.Start, d.End, d.Records, lo, hi, n)
			}
		}
	}

	lastEnd := clock.Time(-1 << 62)
	var (
		b         Batch
		buf, pbuf []byte
	)
	for _, d := range dirs {
		for fi, fe := range d.Entries {
			buf, err = f.ReadFrame(fe, buf)
			if err != nil {
				return nil, err
			}
			if err := b.Decode(f.Header.HeaderVersion, fe, buf); err != nil {
				return nil, fmt.Errorf("interval: frame %d at %d: %w", fi, fe.Offset, err)
			}
			for i := 0; i < b.N; i++ {
				if p != nil {
					// The profile describes the fixed-width layout: check it
					// against the row's fixed-width payload, which is what any
					// profile-driven consumer (Scanner.Next) sees.
					rec := b.Row(i)
					pbuf = rec.AppendPayload(pbuf[:0])
					spec := p.Lookup(rec.Type, rec.Bebits)
					if spec == nil {
						return nil, fmt.Errorf("interval: no profile spec for %s/%s", rec.Type.Name(), rec.Bebits)
					}
					sz, err := spec.Size(pbuf)
					if err != nil {
						return nil, err
					}
					if sz != len(pbuf) {
						return nil, fmt.Errorf("interval: %s record is %d bytes, spec says %d",
							rec.Type.Name(), len(pbuf), sz)
					}
				}
				end := b.End(i)
				if end < lastEnd {
					return nil, fmt.Errorf("interval: record end %d before previous %d", end, lastEnd)
				}
				lastEnd = end
			}
			if b.N > 0 {
				lo, hi := slices.Min(b.Start), lastEnd
				if fe.Start != lo || fe.End != hi {
					return nil, fmt.Errorf("interval: frame bounds [%d %d], records say [%d %d]",
						fe.Start, fe.End, lo, hi)
				}
			}
			rep.Records += int64(b.N)
			rep.Frames++
		}
	}
	return rep, nil
}
