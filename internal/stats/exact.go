package stats

// Exact aggregates. A y column whose value is an integer by construction
// — start, dura/duration and end (int64 nanoseconds), node, cpu, thread,
// type, iscall, and a whole-number constant below 2⁶³ — accumulates in integers and
// converts to its output unit once, when the table is finished. Its sum
// is 128 bits wide, so no sum can wrap, and it is the same whatever
// order its records are added in. Every other y column folds in float64,
// in record order (cell).
//
// The conversion is the one rule both engines follow: a sum is the exact
// integer total rounded once to the nearest float64, divided by 10⁹ for
// a time column (clock.Time(sum).Seconds() when the total fits an
// int64); min and max are the extreme integer converted the same way;
// avg is the converted sum divided by the count.

import (
	"math"
	"math/big"
	"math/bits"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// xcell is an exact y column's accumulator within a group: a 128-bit
// two's-complement sum (lo, hi), the extremes and the count.
type xcell struct {
	lo       uint64
	hi       int64
	min, max int64
	n        int64
}

func newXcell() xcell { return xcell{min: math.MaxInt64, max: math.MinInt64} }

// add folds one value.
func (c *xcell) add(v int64) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, uint64(v), 0)
	c.hi += v>>63 + int64(carry)
	c.n++
	c.min = min(c.min, v)
	c.max = max(c.max, v)
}

// addN folds n copies of v, which is not negative (an integer constant
// or a key field).
func (c *xcell) addN(v, n int64) {
	hi, lo := bits.Mul64(uint64(v), uint64(n)) // < 2¹²⁶
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, lo, 0)
	c.hi += int64(hi) + int64(carry)
	c.n += n
	c.min = min(c.min, v)
	c.max = max(c.max, v)
}

// merge folds another accumulator's values.
func (c *xcell) merge(s *xcell) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, s.lo, 0)
	c.hi += s.hi + int64(carry)
	c.n += s.n
	c.min = min(c.min, s.min)
	c.max = max(c.max, s.max)
}

func mergeXcells(dst, src []xcell) {
	for i := range src {
		dst[i].merge(&src[i])
	}
}

// cell converts the accumulator to its output unit — seconds for a time
// column, else the integer's own — as the float cell finalize reads.
func (c *xcell) cell(seconds bool) cell {
	unit := func(f float64) float64 {
		if seconds {
			return f / float64(clock.Second)
		}
		return f
	}
	return cell{
		sum: unit(int128Float(c.lo, c.hi)),
		min: unit(float64(c.min)),
		max: unit(float64(c.max)),
		n:   c.n,
	}
}

// int128Float is the 128-bit two's-complement integer (lo, hi) rounded
// to the nearest float64, ties to even.
func int128Float(lo uint64, hi int64) float64 {
	if hi == int64(lo)>>63 {
		return float64(int64(lo)) // fits an int64
	}
	neg := hi < 0
	if neg {
		lo, hi = -lo, ^hi
		if lo == 0 {
			hi++
		}
	}
	m := new(big.Int).SetUint64(uint64(hi))
	m.Lsh(m, 64).Or(m, new(big.Int).SetUint64(lo))
	f, _ := new(big.Float).SetInt(m).Float64()
	if neg {
		f = -f
	}
	return f
}

// exactY is an exact y column of a compiled table: which y it is and
// where its integer comes from — a built-in field (fcStart … fcIsCall)
// or, for fcConst, the constant c.
type exactY struct {
	yi    int
	field int
	c     int64
}

// fcConst marks an exact y column that is an integer constant.
const fcConst = -1

// exactOf reports whether y kernel k is exact, and from what.
func exactOf(yi int, k kernel) (exactY, bool) {
	switch k := unshare(k).(type) {
	case kField:
		return exactY{yi: yi, field: k.code}, true
	case kConstNum:
		if k.v == math.Trunc(k.v) && k.v >= 0 && k.v < 1<<63 {
			return exactY{yi: yi, field: fcConst, c: int64(k.v)}, true
		}
	}
	return exactY{}, false
}

// seconds reports whether the column is a time, shown in seconds.
func (e *exactY) seconds() bool { return e.field >= fcStart && e.field <= fcEnd }

// at is row i's integer.
func (e *exactY) at(b *interval.Batch, i int) int64 {
	switch e.field {
	case fcStart:
		return int64(b.Start[i])
	case fcDura:
		return int64(b.Dura[i])
	case fcEnd:
		return int64(b.Start[i] + b.Dura[i])
	case fcConst:
		return e.c
	}
	return keyValue(b.Key(i), e.field)
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
