package clock

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// FuzzParseWindow checks the -window parser's contract on arbitrary
// input: it never panics; whenever it succeeds the bounds are ordered,
// an empty side is its sentinel extreme, and an explicit bound is
// exactly the input's seconds times 10⁹ rounded half away from zero (a
// math/big.Rat oracle); a side refused for its range is out of the Time
// range by that oracle; and FormatWindow spells every accepted window so
// that it reads back the same.
func FuzzParseWindow(f *testing.F) {
	for _, s := range []string{
		"0.5:2", ":2", "0.5:", ":", "2:1", "nope", "a:1", "1:b",
		"NaN:1", "Inf:", "-Inf:Inf", "1e300:2e300", "-0:0", "1:1",
		"0x1p4:0x1p5", "1_0:2_0", ":::", "-1:-0.5",
		"0:9223372036.854775807", "9223372036.854775807:", "9007199.254740993:",
		"100000000.000000001:100000000.000000003", "-9223372036.854775808:",
		"9223372036.8547758075:", "0.0000000015:0x1.8p-30", "1e-400:0e99999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, err := ParseWindow(s)
		i := strings.IndexByte(s, ':')
		if i < 0 {
			if err == nil {
				t.Fatalf("ParseWindow(%q) accepted input without a separator", s)
			}
			return
		}
		bounds := []Time{lo, hi}
		for k, side := range []string{s[:i], s[i+1:]} {
			if side == "" {
				if err == nil && bounds[k] != [2]Time{math.MinInt64, math.MaxInt64}[k] {
					t.Fatalf("ParseWindow(%q): empty side gave %d", s, bounds[k])
				}
				continue
			}
			got, berr := ParseSeconds(side)
			want, ok := oracleNanos(side)
			switch {
			case !ok:
			case berr == nil && (!want.IsInt64() || want.Int64() != int64(got)):
				t.Fatalf("bound %q parses to %d, want %v", side, got, want)
			case berr != nil && strings.Contains(berr.Error(), "overflows") && want.IsInt64():
				t.Fatalf("bound %q: %v, but it is %v ns", side, berr, want)
			}
			if err == nil && (berr != nil || got != bounds[k]) {
				t.Fatalf("ParseWindow(%q) side %q = %d, alone %d, %v", s, side, bounds[k], got, berr)
			}
		}
		if err != nil {
			return
		}
		if lo > hi {
			t.Fatalf("ParseWindow(%q) = [%d, %d]: start after end", s, lo, hi)
		}
		// FormatWindow spells the window ParseWindow reads back.
		if l, h, err := ParseWindow(FormatWindow(lo, hi)); err != nil || l != lo || h != hi {
			t.Fatalf("FormatWindow(%d, %d) = %q reads back as [%d, %d], %v", lo, hi, FormatWindow(lo, hi), l, h, err)
		}
	})
}

// oracleNanos is side's seconds times 10⁹, rounded half away from zero,
// computed with math/big.Rat; ok is false when Rat cannot read it, or
// its exponent is too long to scale by.
func oracleNanos(side string) (*big.Int, bool) {
	s := strings.ReplaceAll(side, "_", "")
	body, exp := strings.TrimLeft(s, "+-"), "eE"
	if len(body) > 1 && body[0] == '0' && body[1]|0x20 == 'x' {
		exp = "pP"
	}
	if e := strings.IndexAny(body, exp); e >= 0 && len(body)-e > 5 || strings.Contains(s, "/") {
		return nil, false
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, false
	}
	r.Mul(r, new(big.Rat).SetInt64(int64(Second)))
	// Half away from zero: floor(|r| + 1/2), with r's sign.
	abs := new(big.Rat).Abs(r)
	abs.Add(abs, big.NewRat(1, 2))
	n := new(big.Int).Quo(abs.Num(), abs.Denom())
	if r.Sign() < 0 {
		n.Neg(n)
	}
	return n, true
}
