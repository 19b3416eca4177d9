// Package clock models the clock environment of the paper's IBM SP
// system: each SMP node has a free-running local clock whose crystal
// drifts relative to true time, and the switch adapter provides a
// globally synchronized clock that is expensive to read. It also
// implements the paper's clock-synchronization arithmetic (§2.2): the
// periodic (global, local) timestamp pairs, the global-to-local ratio
// computed as the root mean square of adjacent slope segments, the
// alternatives the paper discusses (first-point slopes, last-pair slope,
// piecewise segment ratios), and the outlier filtering the paper's
// Summary suggests for pairs polluted by a thread de-schedule between
// the two clock reads.
package clock

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"tracefw/internal/xrand"
)

// Time is a point in time or a duration in nanoseconds. True (switch
// adapter) time and local clock readings share this representation.
type Time int64

// Common duration units, in Time (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time in seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// ParseWindow parses a "lo:hi" time window in seconds (e.g. "0.5:2")
// as used by the analysis CLIs' -window flags. Either side may be empty:
// ":2" means from the start of the run, "0.5:" means to the end (hi
// becomes the maximum Time). lo must not exceed hi.
func ParseWindow(s string) (lo, hi Time, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("clock: window %q is not lo:hi", s)
	}
	lo, hi = math.MinInt64, math.MaxInt64
	if left := s[:i]; left != "" {
		if lo, err = ParseSeconds(left); err != nil {
			return 0, 0, fmt.Errorf("clock: window start %w", err)
		}
	}
	if right := s[i+1:]; right != "" {
		if hi, err = ParseSeconds(right); err != nil {
			return 0, 0, fmt.Errorf("clock: window end %w", err)
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("clock: window %q has start after end", s)
	}
	return lo, hi, nil
}

// ParseSeconds reads a time given in seconds — a window bound, a
// command's time flag. The spelling is strconv.ParseFloat's — decimal or
// hexadecimal, signed, with an exponent, underscores between digits —
// and so are the syntax errors; "NaN" and "Inf", which it also accepts,
// are rejected here. The value is read exactly, never through a
// float64: the Time is the seconds times 10⁹, rounded half away from
// zero, and a value the Time range cannot hold overflows. An error
// starts with s quoted; callers put what s was in front of it.
func ParseSeconds(s string) (Time, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%q: %w", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not finite", s)
	}
	t, ok := exactNanos(s)
	if !ok {
		return 0, fmt.Errorf("%q overflows the time range", s)
	}
	return t, nil
}

// exactNanos is the Time a well-formed ParseFloat spelling of a finite
// number of seconds names; ok is false past the Time range. It reads the
// mantissa's digits and the exponent of the last one (a power of ten, or
// of two after "0x"), and scales by 10⁹ in integers.
func exactNanos(s string) (t Time, ok bool) {
	neg := s[0] == '-'
	s = strings.TrimLeft(s, "+-")
	hexa := len(s) > 1 && s[1]|0x20 == 'x'
	mark, step := "eE", -1
	if hexa {
		s, mark, step = s[2:], "pP", -4
	}
	exp := 0
	if i := strings.IndexAny(s, mark); i >= 0 {
		e, _ := strconv.Atoi(strings.ReplaceAll(s[i+1:], "_", "")) // saturates
		s, exp = s[:i], max(-1<<30, min(e, 1<<30))
	}
	s = strings.ReplaceAll(s, "_", "")
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s, exp = s[:i]+s[i+1:], exp+step*(len(s)-i-1)
	}
	mant := strings.TrimLeft(s, "0")
	var mag uint64
	switch {
	case mant == "":
	case !hexa:
		// The nanoseconds' integer is the first k digits; the next one
		// decides the rounding (at 5 or more the rest is at least half).
		k := len(mant) + exp + 9
		if k > 19 {
			return 0, false
		}
		if k > 0 {
			mag, _ = strconv.ParseUint((mant + strings.Repeat("0", k))[:k], 10, 64)
		}
		if k >= 0 && k < len(mant) && mant[k] >= '5' {
			mag++
		}
	default:
		// mantissa × 10⁹ × 2^exp; the first bit shifted out rounds.
		packed, _ := hex.DecodeString(strings.Repeat("0", len(mant)%2) + mant)
		m := new(big.Int).SetBytes(packed)
		m.Mul(m, big.NewInt(int64(Second)))
		switch {
		case exp > 64:
			return 0, false
		case exp >= 0:
			m.Lsh(m, uint(exp))
		case -exp <= m.BitLen():
			half := m.Bit(-exp - 1)
			m.Rsh(m, uint(-exp)).Add(m, big.NewInt(int64(half)))
		default:
			m.SetUint64(0) // under half a nanosecond
		}
		if !m.IsUint64() {
			return 0, false
		}
		mag = m.Uint64()
	}
	if neg {
		return Time(-mag), mag <= 1<<63 // two's complement: -(1<<63) is MinInt64
	}
	return Time(mag), mag <= math.MaxInt64
}

// FormatWindow spells [lo, hi] as ParseWindow reads it back: a side at
// its open extreme empty, any other as exact decimal seconds with no
// trailing zeros.
func FormatWindow(lo, hi Time) string {
	return formatBound(lo, math.MinInt64) + ":" + formatBound(hi, math.MaxInt64)
}

func formatBound(t, open Time) string {
	if t == open {
		return ""
	}
	mag, sign := uint64(t), ""
	if t < 0 {
		mag, sign = -mag, "-"
	}
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%s%d.%09d", sign, mag/uint64(Second), mag%uint64(Second)), "0"), ".")
}

// Local is a simulated local clock. The clock reading at true time t is
//
//	local(t) = Offset + (1+Drift)·t  (+ jitter, quantized to Granularity)
//
// Drift is the fractional frequency error of the crystal; values around
// ±1e-5..1e-4 (10–100 µs/s) match the magnitudes visible in the paper's
// Figure 1, where discrepancies of several milliseconds accumulate over
// 140 seconds.
type Local struct {
	Offset      Time    // local reading at true time zero
	Drift       float64 // fractional rate error ((1+Drift) local units per true unit)
	JitterNS    float64 // stddev of symmetric read noise, nanoseconds
	Granularity Time    // reading is truncated to a multiple of this (0 or 1: none)

	rng *xrand.Rand
}

// NewLocal builds a local clock. seed controls the jitter stream only;
// two clocks with equal parameters and seeds read identically.
func NewLocal(offset Time, drift float64, jitterNS float64, granularity Time, seed uint64) *Local {
	return &Local{
		Offset:      offset,
		Drift:       drift,
		JitterNS:    jitterNS,
		Granularity: granularity,
		rng:         xrand.New(seed),
	}
}

// ReadAt returns the local clock value at true time t. Successive calls
// with the same t may differ by jitter; the noiseless value is ValueAt.
func (c *Local) ReadAt(t Time) Time {
	v := c.ValueAt(t)
	if c.JitterNS > 0 && c.rng != nil {
		v += Time(math.Round(c.rng.NormFloat64() * c.JitterNS))
	}
	if c.Granularity > 1 {
		v -= v % c.Granularity
	}
	return v
}

// ValueAt returns the ideal (noise-free, unquantized) local clock value
// at true time t.
func (c *Local) ValueAt(t Time) Time {
	return c.Offset + t + Time(math.Round(c.Drift*float64(t)))
}

// TrueAt inverts ValueAt: the true time at which the noiseless clock
// reads local. Useful in tests.
func (c *Local) TrueAt(local Time) Time {
	return Time(math.Round(float64(local-c.Offset) / (1 + c.Drift)))
}

// Pair is one global-clock record payload: a reading of the switch
// adapter's global clock and of the node's local clock taken (nominally)
// at the same instant.
type Pair struct {
	Global Time
	Local  Time
}

// SamplePair reads the global clock (identity on true time) and the
// local clock at true time t. descheduleDelay models the paper's failure
// mode: the sampling thread is preempted between the global read and the
// local read, so the local reading is taken descheduleDelay later.
func SamplePair(c *Local, t Time, descheduleDelay Time) Pair {
	return Pair{Global: t, Local: c.ReadAt(t + descheduleDelay)}
}

// RMSRatio implements the paper's equation for the global-to-local clock
// ratio R: the root mean square of the slope segments constructed by
// adjacent pairs of timestamp points,
//
//	R = sqrt( (1/n) · Σ_{i=1..n} ((Gi−Gi−1)/(Li−Li−1))² ).
//
// It returns 1 when fewer than two pairs are given (no drift information),
// and skips degenerate segments with zero local progress.
func RMSRatio(pairs []Pair) float64 {
	sum := 0.0
	n := 0
	for i := 1; i < len(pairs); i++ {
		dl := pairs[i].Local - pairs[i-1].Local
		dg := pairs[i].Global - pairs[i-1].Global
		if dl == 0 {
			continue
		}
		s := float64(dg) / float64(dl)
		sum += s * s
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Sqrt(sum / float64(n))
}

// FirstPointRatio is the alternative the paper rejects: the root mean
// square of all slopes anchored at the first pair (G0,L0), which "gives
// too much weight on the first point in the sequence".
func FirstPointRatio(pairs []Pair) float64 {
	if len(pairs) < 2 {
		return 1
	}
	g0, l0 := pairs[0].Global, pairs[0].Local
	sum := 0.0
	n := 0
	for i := 1; i < len(pairs); i++ {
		dl := pairs[i].Local - l0
		dg := pairs[i].Global - g0
		if dl == 0 {
			continue
		}
		s := float64(dg) / float64(dl)
		sum += s * s
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Sqrt(sum / float64(n))
}

// LastPairRatio is the paper's "slope of the last timestamp pair"
// alternative, suitable when the elapsed trace time is reasonably long:
// the overall slope between the first and last pairs.
func LastPairRatio(pairs []Pair) float64 {
	if len(pairs) < 2 {
		return 1
	}
	first, last := pairs[0], pairs[len(pairs)-1]
	dl := last.Local - first.Local
	if dl == 0 {
		return 1
	}
	return float64(last.Global-first.Global) / float64(dl)
}

// FilterOutliers drops pairs whose adjacent-segment slope deviates from
// the median segment slope by more than tol (fractional, e.g. 1e-3).
// This removes records where "significant discrepancy between the global
// and local clock may be recorded due to, say, thread de-scheduling right
// after accessing the global clock" (paper §5). The first pair is always
// kept; a dropped pair removes only itself.
func FilterOutliers(pairs []Pair, tol float64) []Pair {
	if len(pairs) < 3 {
		return append([]Pair(nil), pairs...)
	}
	slopes := make([]float64, 0, len(pairs)-1)
	for i := 1; i < len(pairs); i++ {
		dl := pairs[i].Local - pairs[i-1].Local
		if dl == 0 {
			continue
		}
		slopes = append(slopes, float64(pairs[i].Global-pairs[i-1].Global)/float64(dl))
	}
	if len(slopes) == 0 {
		return append([]Pair(nil), pairs...)
	}
	sorted := append([]float64(nil), slopes...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]

	out := make([]Pair, 0, len(pairs))
	out = append(out, pairs[0])
	for i := 1; i < len(pairs); i++ {
		prev := out[len(out)-1]
		dl := pairs[i].Local - prev.Local
		if dl == 0 {
			continue
		}
		s := float64(pairs[i].Global-prev.Global) / float64(dl)
		if math.Abs(s-median) <= tol*math.Abs(median) {
			out = append(out, pairs[i])
		}
	}
	return out
}
