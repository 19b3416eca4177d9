package stats

// Exact aggregates. Every y column accumulates exactly: a group's sum is
// the exact total of the values its rows gave it, the same whatever
// order they were added or partials merged in, rounded to the nearest
// float64 once, when the table is finished.
//
// Where a value comes from decides only how it is added. An integer
// source — start, dura/duration and end (int64 nanoseconds), node, cpu,
// thread, type, iscall, and a whole-number constant below 2⁶³ — is read
// from the batch as an integer. Every other y is a kernel value: one
// that is a whole number of magnitude below 2⁶³ joins the same 128-bit
// integer part, and any other finite value an exact fraction
// accumulator (frac). ±Inf and NaN are kept as flags.
//
// The conversion is the one rule both engines follow: a sum is the exact
// total rounded once to the nearest float64 (ties to even; a zero total
// is +0; NaN if a NaN or both infinities were added, else the infinity
// added), divided by 10⁹ for a time column; avg is the converted sum
// divided by the count. min and max skip NaN — a group whose every value
// is NaN answers NaN — and between -0 and +0 min takes -0 and max +0.

import (
	"math"
	"math/big"
	"math/bits"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// acc is one y column's accumulator within a group: the integer part of
// its sum as a 128-bit two's-complement integer (lo, hi), the count, the
// extremes, and f — 1 + the index of its fraction accumulator in the
// group table's slab, or 0 while every value it took was an integer.
// The extremes are int64s that order as the values do: an integer
// source's integer, a kernel value's bits through order.
type acc struct {
	lo       uint64
	hi       int64
	n        int64
	min, max int64
	f        int32
}

func newAcc() acc { return acc{min: math.MaxInt64, max: math.MinInt64} }

// order maps the bits of a float64 other than NaN to an int64 that
// orders as the float does, -0 just below +0, so min keeps -0 and max +0
// in any order. It is its own inverse.
func order(bits int64) int64 { return bits ^ bits>>63&math.MaxInt64 }

// addInt folds one integer-source value.
func (a *acc) addInt(v int64) {
	a.add128(uint64(v), v>>63)
	a.n++
	a.min, a.max = min(a.min, v), max(a.max, v)
}

// add128 adds the 128-bit two's-complement integer (lo, hi) to the
// integer part.
func (a *acc) add128(lo uint64, hi int64) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, lo, 0)
	a.hi += hi + int64(carry)
}

// addN folds n copies of v, which is not negative (an integer constant
// or a key field).
func (a *acc) addN(v, n int64) {
	hi, lo := bits.Mul64(uint64(v), uint64(n)) // < 2¹²⁶
	a.add128(lo, int64(hi))
	a.n += n
	a.min, a.max = min(a.min, v), max(a.max, v)
}

// add folds one kernel value into a, a group of t. NaN leaves the
// extremes alone.
func (t *groupTable) add(a *acc, v float64) {
	a.n++
	if k := order(int64(math.Float64bits(v))); v == v {
		a.min, a.max = min(a.min, k), max(a.max, k)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1<<63 {
		i := int64(v)
		a.add128(uint64(i), i>>63)
		return
	}
	t.fracOf(a).add(v)
}

// fracOf is a's fraction accumulator, which it gets on first use.
func (t *groupTable) fracOf(a *acc) *frac {
	if a.f == 0 {
		t.fracs = append(t.fracs, frac{})
		a.f = int32(len(t.fracs))
	}
	return &t.fracs[a.f-1]
}

// mergeAcc folds s, whose fraction accumulator lives in src, into d, a
// group of t. s is only read: d's fraction accumulator is its own, in
// t's slab, never s's.
func (t *groupTable) mergeAcc(d, s *acc, src []frac) {
	d.merge(s)
	if s.f != 0 {
		t.fracOf(d).merge(&src[s.f-1])
	}
}

// merge folds s's integer part, count and extremes.
func (a *acc) merge(s *acc) {
	a.add128(s.lo, s.hi)
	a.n += s.n
	a.min, a.max = min(a.min, s.min), max(a.max, s.max)
}

// value is a's aggregate under agg, for a column whose values come from
// ys: in seconds for a time.
func (t *groupTable) value(a *acc, agg Agg, ys *ysrc) float64 {
	unit := 1.0 // x / 1 is x, bit for bit
	if ys.seconds() {
		unit = float64(clock.Second)
	}
	extreme := func(k int64) float64 {
		if ys.integer() {
			return float64(k) / unit
		}
		return math.Float64frombits(uint64(order(k)))
	}
	switch {
	case agg == AggCount:
		return float64(a.n)
	case agg == AggSum:
		return t.sum(a) / unit
	case a.n == 0:
		return 0
	case agg == AggAvg:
		return t.sum(a) / unit / float64(a.n)
	case a.min > a.max:
		return math.NaN() // every value was NaN
	case agg == AggMin:
		return extreme(a.min)
	case agg == AggMax:
		return extreme(a.max)
	}
	return 0
}

// sum is a's exact total rounded once to the nearest float64, ties to
// even.
func (t *groupTable) sum(a *acc) float64 {
	if a.f == 0 && a.hi == int64(a.lo)>>63 {
		return float64(int64(a.lo)) // an integer that fits an int64
	}
	// The integer part (lo, hi), in units of 2^-fracBias, plus the
	// fraction accumulator's chunks.
	z := big.NewInt(a.hi)
	z.Lsh(z, 64).Add(z, new(big.Int).SetUint64(a.lo)).Lsh(z, fracBias)
	if a.f != 0 {
		f := &t.fracs[a.f-1]
		if f.special != 0 { // +Inf, -Inf, or NaN: a NaN or both infinities
			return [...]float64{fracPosInf: math.Inf(1), fracNegInf: math.Inf(-1), fracNaN: math.NaN()}[f.special]
		}
		for i := fracChunks - 1; i >= 0; i-- {
			z.Add(z, new(big.Int).Lsh(big.NewInt(f.c[i]), uint(32*i)))
		}
	}
	r, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(z), -fracBias).Float64()
	return r
}

// frac is the exact sum of a group's values that are not integers below
// 2⁶³: Neal's small superaccumulator ("Fast exact summation using small
// and large superaccumulators", arXiv:1505.05571). Chunk i holds a
// multiple of 2^(32i-1074), so a float64's 53-bit mantissa lands on at
// most three chunks, each add moving a chunk by less than 2³². Carries
// are propagated (norm) before fracLimit adds could overflow one. Adding
// and merging are exact, so the total does not depend on their order.
type frac struct {
	c       [fracChunks]int64
	adds    int32 // adds since the chunks were last normalized: |c[i]| < (adds+1)·2³²
	special uint8 // the infinities added, bit per sign, or fracNaN
}

const (
	fracChunks = 67
	fracBias   = 1074    // the least significant bit of chunk 0 is 2^-fracBias
	fracLimit  = 1 << 30 // adds between normalizations, so no chunk passes 2⁶³
)

const (
	fracPosInf uint8 = 1 << iota
	fracNegInf
	fracNaN = fracPosInf | fracNegInf // NaN answers what both infinities do
)

// add folds one value exactly.
func (f *frac) add(v float64) {
	b := math.Float64bits(v)
	e := int(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	if e == 0x7ff {
		f.special |= [2]uint8{fracPosInf, fracNegInf}[b>>63]
		if m != 0 {
			f.special = fracNaN
		}
		return
	}
	// v = ±m·2^(p-1074): a normal number carries its hidden bit and
	// exponent e-1, a subnormal exponent 0.
	p := 0
	if e > 0 {
		m |= 1 << 52
		p = e - 1
	}
	k, s := p>>5, uint(p&31)
	lo, hi := m<<s, m>>(64-s) // m·2^s, up to 84 bits
	sign := 1 - 2*int64(b>>63)
	f.c[k] += sign * int64(lo&(1<<32-1))
	f.c[k+1] += sign * int64(lo>>32)
	f.c[k+2] += sign * int64(hi)
	if f.adds++; f.adds >= fracLimit {
		f.norm()
	}
}

// merge folds s exactly; s is only read.
func (f *frac) merge(s *frac) {
	if f.adds+s.adds >= fracLimit {
		f.norm()
	}
	for i := range f.c {
		f.c[i] += s.c[i]
	}
	f.adds += s.adds + 1
	f.special |= s.special
}

// norm propagates carries, leaving every chunk but the last in [0, 2³²).
func (f *frac) norm() {
	for i := 0; i < fracChunks-1; i++ {
		carry := f.c[i] >> 32
		f.c[i] -= carry << 32
		f.c[i+1] += carry
	}
	f.adds = 0
}

// ysrc is where a y column's values come from: a built-in integer field
// (fcStart … fcIsCall), an integer constant c (fcConst), or its kernel
// (fcKernel).
type ysrc struct {
	field int
	c     int64
}

// y sources that are not a field.
const (
	fcConst  = -1
	fcKernel = -2
)

// ysrcOf reports where y kernel k's values come from.
func ysrcOf(k kernel) ysrc {
	switch k := unshare(k).(type) {
	case kField:
		return ysrc{field: k.code}
	case kConstNum:
		if k.v == math.Trunc(k.v) && k.v >= 0 && k.v < 1<<63 {
			return ysrc{field: fcConst, c: int64(k.v)}
		}
	}
	return ysrc{field: fcKernel}
}

// integer reports whether the column is an integer source.
func (s *ysrc) integer() bool { return s.field != fcKernel }

// seconds reports whether the column is a time, shown in seconds.
func (s *ysrc) seconds() bool { return s.field >= fcStart && s.field <= fcEnd }

// at is an integer source's value at row i.
func (s *ysrc) at(b *interval.Batch, i int) int64 {
	switch s.field {
	case fcStart:
		return int64(b.Start[i])
	case fcDura:
		return int64(b.Dura[i])
	case fcEnd:
		return int64(b.Start[i] + b.Dura[i])
	case fcConst:
		return s.c
	}
	return keyValue(b.Key(i), s.field)
}

// keyValue is a key field's integer: node, cpu, thread, type or iscall.
func keyValue(k *interval.Key, field int) int64 {
	if field == fcIsCall {
		if k.Bebits == 2 || k.Bebits == 3 {
			return 1
		}
		return 0
	}
	return int64(keyInts(k)[field-fcNode])
}
