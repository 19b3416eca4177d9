package stats

import (
	"math"
	"strconv"
)

// Value is a dynamically typed expression result: a number or a string.
type Value struct {
	F   float64
	S   string
	Str bool
}

func num(f float64) Value { return Value{F: f} }
func str(s string) Value  { return Value{S: s, Str: true} }

// Text renders a value for TSV output. Integer-valued floats print
// without an exponent up to and including ±1e15 (the boundary itself is
// exactly representable, so excluding it flipped "1000000000000000"
// into "1e+15"); negative zero prints as "0" like positive zero instead
// of leaking the sign through the float path.
func (v Value) Text() string {
	if v.Str {
		return v.S
	}
	if v.F == 0 {
		return "0"
	}
	if v.F == math.Trunc(v.F) && math.Abs(v.F) <= 1e15 {
		return strconv.FormatInt(int64(v.F), 10)
	}
	return strconv.FormatFloat(v.F, 'g', -1, 64)
}

// Truth interprets a value as a boolean.
func (v Value) Truth() bool {
	if v.Str {
		return v.S != ""
	}
	return v.F != 0
}
