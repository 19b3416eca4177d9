package interval

import "context"

// decodeOnly is a frame source that memoizes nothing: a memo compute
// gets the frame through the function.
type decodeOnly func(f *File, fe FrameEntry, scratch *Batch) (*Batch, error)

func (d decodeOnly) Memo(_ context.Context, f *File, fe FrameEntry, _ MemoKey, compute func(*Batch, bool) (any, int64, error)) (any, bool, error) {
	b, err := d(f, fe, nil)
	if err != nil {
		return nil, false, err
	}
	v, _, err := compute(b, false)
	return v, false, err
}

// frameLen is a map function returning a frame's record count.
func frameLen(_ int, fr *Frame) (int, error) {
	b, err := fr.Batch()
	if err != nil {
		return 0, err
	}
	return b.N, nil
}
