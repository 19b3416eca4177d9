package clock

import (
	"math"
	"testing"
	"testing/quick"

	"tracefw/internal/xrand"
)

func TestLocalValueAtNoDrift(t *testing.T) {
	c := NewLocal(5*Second, 0, 0, 1, 1)
	if got := c.ValueAt(10 * Second); got != 15*Second {
		t.Fatalf("ValueAt = %v, want 15s", got)
	}
}

func TestLocalValueAtDrift(t *testing.T) {
	c := NewLocal(0, 1e-4, 0, 1, 1)
	// After 100 s of true time the clock should be ahead by 10 ms.
	got := c.ValueAt(100 * Second)
	want := 100*Second + 10*Millisecond
	if got != want {
		t.Fatalf("ValueAt = %v, want %v", got, want)
	}
}

func TestLocalNegativeDrift(t *testing.T) {
	c := NewLocal(0, -5e-5, 0, 1, 1)
	got := c.ValueAt(200 * Second)
	want := 200*Second - 10*Millisecond
	if got != want {
		t.Fatalf("ValueAt = %v, want %v", got, want)
	}
}

func TestTrueAtInvertsValueAt(t *testing.T) {
	c := NewLocal(3*Second, 7e-5, 0, 1, 1)
	for _, tt := range []Time{0, Second, 17 * Second, 140 * Second} {
		l := c.ValueAt(tt)
		back := c.TrueAt(l)
		diff := back - tt
		if diff < -1 || diff > 1 { // rounding tolerance
			t.Fatalf("TrueAt(ValueAt(%v)) = %v", tt, back)
		}
	}
}

func TestReadAtGranularity(t *testing.T) {
	c := NewLocal(0, 0, 0, Microsecond, 1)
	v := c.ReadAt(1234567) // 1.234567 ms
	if v%Microsecond != 0 {
		t.Fatalf("granular read %d not a multiple of 1µs", v)
	}
}

func TestReadAtJitterBounded(t *testing.T) {
	c := NewLocal(0, 0, 100, 1, 42) // 100 ns jitter
	for i := 0; i < 1000; i++ {
		v := c.ReadAt(Second)
		d := v - Second
		if d < -1000 || d > 1000 { // 10 sigma
			t.Fatalf("jittered read off by %d ns", d)
		}
	}
}

func samplePairs(c *Local, n int, step Time) []Pair {
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		t := Time(i) * step
		pairs[i] = Pair{Global: t, Local: c.ValueAt(t)}
	}
	return pairs
}

func TestRMSRatioExactOnCleanDrift(t *testing.T) {
	for _, drift := range []float64{0, 1e-5, -1e-5, 1e-4, -2e-4} {
		c := NewLocal(Second, drift, 0, 1, 1)
		pairs := samplePairs(c, 20, Second)
		r := RMSRatio(pairs)
		want := 1 / (1 + drift)
		if math.Abs(r-want) > 1e-9 {
			t.Fatalf("drift %g: RMSRatio = %.12f, want %.12f", drift, r, want)
		}
	}
}

func TestRMSRatioFewPairs(t *testing.T) {
	if r := RMSRatio(nil); r != 1 {
		t.Fatalf("RMSRatio(nil) = %g, want 1", r)
	}
	if r := RMSRatio([]Pair{{0, 0}}); r != 1 {
		t.Fatalf("RMSRatio(one) = %g, want 1", r)
	}
}

func TestRMSRatioSkipsZeroLocalProgress(t *testing.T) {
	// All segments degenerate: no information, ratio defaults to 1.
	pairs := []Pair{{0, 0}, {Second, 0}}
	if r := RMSRatio(pairs); r != 1 {
		t.Fatalf("RMSRatio with only degenerate segments = %g, want 1", r)
	}
	// A degenerate segment amid valid ones is skipped, not a div-by-zero;
	// the following segment's slope spans the stall.
	pairs = []Pair{{0, 0}, {Second, 0}, {2 * Second, 2 * Second}}
	if r := RMSRatio(pairs); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("RMSRatio skipping degenerate segment = %g, want 0.5", r)
	}
}

func TestLastPairRatio(t *testing.T) {
	c := NewLocal(0, 2e-5, 0, 1, 1)
	pairs := samplePairs(c, 10, Second)
	r := LastPairRatio(pairs)
	want := 1 / (1 + 2e-5)
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("LastPairRatio = %.12f, want %.12f", r, want)
	}
}

func TestFirstPointRatioBiasedByFirstPoint(t *testing.T) {
	// Corrupt the first pair: first-point anchoring must be affected more
	// than the adjacent-segment RMS (which only loses one segment).
	c := NewLocal(0, 5e-5, 0, 1, 1)
	pairs := samplePairs(c, 30, Second)
	pairs[0].Local += 10 * Millisecond // gross error at the anchor
	want := 1 / (1 + 5e-5)
	errRMS := math.Abs(RMSRatio(pairs) - want)
	errFP := math.Abs(FirstPointRatio(pairs) - want)
	if errFP <= errRMS {
		t.Fatalf("first-point error %g not worse than RMS error %g", errFP, errRMS)
	}
}

func TestRatioAdjusterRoundTrip(t *testing.T) {
	c := NewLocal(9*Second, 8e-5, 0, 1, 1)
	pairs := samplePairs(c, 140, Second)
	a := NewRatioAdjuster(pairs)
	for _, tt := range []Time{0, Second / 2, 70 * Second, 139 * Second} {
		adj := a.Global(c.ValueAt(tt))
		err := adj - tt
		if err < 0 {
			err = -err
		}
		if err > 10*Microsecond {
			t.Fatalf("adjusted(%v) off by %v", tt, err)
		}
	}
}

func TestRatioAdjusterDuration(t *testing.T) {
	a := &RatioAdjuster{R: 0.5}
	if d := a.Duration(10 * Second); d != 5*Second {
		t.Fatalf("Duration = %v, want 5s", d)
	}
}

func TestRatioAdjusterAnchorsAtFirstPair(t *testing.T) {
	pairs := []Pair{{Global: 100 * Second, Local: 7 * Second}, {Global: 101 * Second, Local: 8 * Second}}
	a := NewRatioAdjuster(pairs)
	if g := a.Global(7 * Second); g != 100*Second {
		t.Fatalf("anchor mapping = %v, want 100s", g)
	}
}

func TestLastPairAdjuster(t *testing.T) {
	c := NewLocal(Second, -6e-5, 0, 1, 1)
	pairs := samplePairs(c, 100, Second)
	a := NewLastPairAdjuster(pairs)
	adj := a.Global(c.ValueAt(99 * Second))
	err := adj - 99*Second
	if err < 0 {
		err = -err
	}
	if err > 5*Microsecond {
		t.Fatalf("last-pair adjusted off by %v", err)
	}
}

func TestPiecewiseAdjusterTracksVaryingDrift(t *testing.T) {
	// Drift changes midway (temperature change); piecewise should track it
	// while a single ratio cannot.
	var pairs []Pair
	local := Time(0)
	for i := 0; i <= 100; i++ {
		g := Time(i) * Second
		pairs = append(pairs, Pair{Global: g, Local: local})
		rate := 1.0 + 1e-4
		if i >= 50 {
			rate = 1.0 - 1e-4
		}
		local += Time(float64(Second) * rate)
	}
	pw := NewPiecewiseAdjuster(pairs)
	single := NewRatioAdjuster(pairs)

	// Evaluate at the pair points' midpoints.
	var worstPW, worstSingle Time
	for i := 0; i < 100; i++ {
		trueT := Time(i)*Second + Second/2
		lv := (pairs[i].Local + pairs[i+1].Local) / 2
		for _, probe := range []struct {
			a Adjuster
			w *Time
		}{{pw, &worstPW}, {single, &worstSingle}} {
			err := probe.a.Global(lv) - trueT
			if err < 0 {
				err = -err
			}
			if err > *probe.w {
				*probe.w = err
			}
		}
	}
	if worstPW > 2*Microsecond {
		t.Fatalf("piecewise worst error %v too large", worstPW)
	}
	if worstSingle < 10*worstPW {
		t.Fatalf("single-ratio worst error %v not clearly worse than piecewise %v", worstSingle, worstPW)
	}
}

func TestPiecewiseAdjusterEdges(t *testing.T) {
	pairs := []Pair{{0, 0}, {Second, Second}, {2 * Second, 2 * Second}}
	p := NewPiecewiseAdjuster(pairs)
	if g := p.Global(-Second); g != -Second {
		t.Fatalf("extrapolate before first = %v", g)
	}
	if g := p.Global(3 * Second); g != 3*Second {
		t.Fatalf("extrapolate after last = %v", g)
	}
	if d := p.Duration(Second); d != Second {
		t.Fatalf("Duration = %v", d)
	}
}

func TestPiecewiseAdjusterDegenerate(t *testing.T) {
	p := NewPiecewiseAdjuster(nil)
	if g := p.Global(5); g != 5 {
		t.Fatalf("empty piecewise Global = %v", g)
	}
	p = NewPiecewiseAdjuster([]Pair{{10, 3}})
	if g := p.Global(5); g != 12 {
		t.Fatalf("single-pair piecewise Global = %v, want offset mapping 12", g)
	}
}

func TestFilterOutliersDropsDescheduledPair(t *testing.T) {
	c := NewLocal(0, 1e-5, 0, 1, 1)
	pairs := samplePairs(c, 50, Second)
	// Pair 25 suffered a 5 ms de-schedule between the global and local read.
	pairs[25].Local += 5 * Millisecond
	filtered := FilterOutliers(pairs, 1e-3)
	if len(filtered) != len(pairs)-1 {
		t.Fatalf("filtered %d pairs, want %d", len(filtered), len(pairs)-1)
	}
	for _, p := range filtered {
		if p == pairs[25] {
			t.Fatal("outlier pair survived filtering")
		}
	}
	// Ratio from filtered pairs should be near-exact again.
	want := 1 / (1 + 1e-5)
	if r := RMSRatio(filtered); math.Abs(r-want) > 1e-9 {
		t.Fatalf("post-filter RMSRatio = %.12f, want %.12f", r, want)
	}
}

func TestFilterOutliersKeepsCleanData(t *testing.T) {
	c := NewLocal(0, 3e-5, 0, 1, 1)
	pairs := samplePairs(c, 30, Second)
	filtered := FilterOutliers(pairs, 1e-3)
	if len(filtered) != len(pairs) {
		t.Fatalf("clean data lost %d pairs", len(pairs)-len(filtered))
	}
}

func TestFilterOutliersSmallInputs(t *testing.T) {
	pairs := []Pair{{0, 0}, {1, 1}}
	got := FilterOutliers(pairs, 1e-3)
	if len(got) != 2 {
		t.Fatalf("small input mangled: %v", got)
	}
}

func TestRMSRatioWithJitterCloseToTruth(t *testing.T) {
	c := NewLocal(0, 4e-5, 500, Microsecond, 99)
	var pairs []Pair
	for i := 0; i < 140; i++ {
		pairs = append(pairs, SamplePair(c, Time(i)*Second, 0))
	}
	r := RMSRatio(pairs)
	want := 1 / (1 + 4e-5)
	if math.Abs(r-want) > 5e-6 {
		t.Fatalf("jittered RMSRatio = %.9f, want ~%.9f", r, want)
	}
}

func TestSamplePairDescheduleDelayShowsUp(t *testing.T) {
	c := NewLocal(0, 0, 0, 1, 1)
	p := SamplePair(c, 10*Second, 3*Millisecond)
	if p.Local-p.Global != 3*Millisecond {
		t.Fatalf("deschedule delay not reflected: %+v", p)
	}
}

func TestQuickScaleMonotone(t *testing.T) {
	f := func(a, b int32, rSeed uint8) bool {
		r := 0.999 + float64(rSeed)/128000.0 // ratios near 1
		x, y := Time(a), Time(b)
		if x > y {
			x, y = y, x
		}
		return scale(x, r) <= scale(y, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRatioAdjusterRecoversDrift(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		drift := (rng.Float64() - 0.5) * 4e-4
		offset := Time(rng.Int63n(int64(10 * Second)))
		c := NewLocal(offset, drift, 0, 1, 1)
		pairs := samplePairs(c, 30, 2*Second)
		a := NewRatioAdjuster(pairs)
		samples := []Time{Second, 13 * Second, 55 * Second}
		if worst := MaxAbsError(a, c, samples); worst > 20*Microsecond {
			t.Fatalf("trial %d (drift %g): worst error %v", trial, drift, worst)
		}
	}
}

func TestMaxAbsError(t *testing.T) {
	c := NewLocal(0, 0, 0, 1, 1)
	bad := &RatioAdjuster{G0: 0, L0: 0, R: 1.001}
	got := MaxAbsError(bad, c, []Time{1000 * Second})
	if got != Second {
		t.Fatalf("MaxAbsError = %v, want 1s", got)
	}
}

func TestParseWindow(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi Time
		ok     bool
	}{
		{"0.5:2", Second / 2, 2 * Second, true},
		{":2", math.MinInt64, 2 * Second, true},
		{"0.5:", Second / 2, math.MaxInt64, true},
		{":", math.MinInt64, math.MaxInt64, true},
		{"2:1", 0, 0, false},
		{"nope", 0, 0, false},
		{"a:1", 0, 0, false},
		{"1:b", 0, 0, false},
		// ParseFloat accepts these; ParseWindow must not.
		{"NaN:1", 0, 0, false},
		{"1:NaN", 0, 0, false},
		{"Inf:1", 0, 0, false},
		{"-Inf:Inf", 0, 0, false},
		{"1:+Inf", 0, 0, false},
		{"1e300:2e300", 0, 0, false},
		{"-1e300:", 0, 0, false},
		// Bounds are read exactly, not through a float64: the end of the
		// Time range is a bound (a float rounds it to 2^63, which wraps),
		// and so is any nanosecond past 2^53.
		{"0:9223372036.854775807", 0, math.MaxInt64, true},
		{"9223372036.854775807:", math.MaxInt64, math.MaxInt64, true},
		{"9007199.254740993:", 9007199254740993, math.MaxInt64, true},
		{"100000000.000000001:100000000.000000003", 100000000000000001, 100000000000000003, true},
		{"-9223372036.854775808:0", math.MinInt64, 0, true},
		{"9223372036.8547758075:", 0, 0, false},
		{"-9223372036.8547758085:", 0, 0, false},
		// Sub-nanosecond digits round half away from zero.
		{"0.0000000015:0.0000000024999", 2, 2, true},
		{"-0.0000000025:0.0000000025", -3, 3, true},
		{"0x1p-31:0x1p-30", 0, 1, true},
		{"0x1.8p-30:1_0.5e-1", 1, 1050000000, true},
	}
	for _, tc := range cases {
		lo, hi, err := ParseWindow(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseWindow(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (lo != tc.lo || hi != tc.hi) {
			t.Errorf("ParseWindow(%q) = [%d %d], want [%d %d]", tc.in, lo, hi, tc.lo, tc.hi)
		}
	}
}
