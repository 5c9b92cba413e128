package stepfunc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroAndConstant(t *testing.T) {
	z := Zero()
	if !z.IsZero() || z.Value(0) != 0 || z.Value(1e9) != 0 {
		t.Error("Zero() is not identically zero")
	}
	c := Constant(5)
	for _, tt := range []float64{0, 0.5, 100, 1e12} {
		if c.Value(tt) != 5 {
			t.Errorf("Constant(5).Value(%v) = %d", tt, c.Value(tt))
		}
	}
	if !Constant(0).IsZero() {
		t.Error("Constant(0) should be zero")
	}
}

func TestFromStepsPaperExample(t *testing.T) {
	// V[a] = [(3600, 4), (3600, 3)] from §A.3:
	// 4 nodes on [0,3600), 3 on [3600,7200), 0 after.
	f := FromSteps(Step{3600, 4}, Step{3600, 3})
	cases := []struct {
		t    float64
		want int
	}{
		{0, 4}, {1800, 4}, {3599.9, 4},
		{3600, 3}, {7199, 3},
		{7200, 0}, {1e9, 0},
	}
	for _, c := range cases {
		if got := f.Value(c.t); got != c.want {
			t.Errorf("Value(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestFromStepsInfinite(t *testing.T) {
	// V[b] = [(inf, 6)]: 6 nodes always available.
	f := FromSteps(Step{Inf, 6})
	if f.Value(0) != 6 || f.Value(1e15) != 6 {
		t.Error("infinite step not honored")
	}
}

func TestFromStepsZeroDurationSkipped(t *testing.T) {
	f := FromSteps(Step{0, 99}, Step{10, 2})
	if f.Value(0) != 2 {
		t.Errorf("zero-duration step should be skipped, got %d", f.Value(0))
	}
}

func TestRect(t *testing.T) {
	r := Rect(10, 5, 3)
	checks := []struct {
		t    float64
		want int
	}{{0, 0}, {9.99, 0}, {10, 3}, {14.9, 3}, {15, 0}, {100, 0}}
	for _, c := range checks {
		if got := r.Value(c.t); got != c.want {
			t.Errorf("Rect.Value(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if !Rect(5, 0, 3).IsZero() || !Rect(5, 3, 0).IsZero() {
		t.Error("degenerate rects should be zero")
	}
	ri := Rect(2, Inf, 7)
	if ri.Value(1) != 0 || ri.Value(2) != 7 || ri.Value(1e12) != 7 {
		t.Error("infinite rect wrong")
	}
}

func TestRectPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative start":    func() { Rect(-1, 5, 3) },
		"negative duration": func() { Rect(1, -5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAddSub(t *testing.T) {
	a := FromSteps(Step{10, 4}, Step{10, 2})
	b := FromSteps(Step{5, 1}, Step{10, 3})
	sum := a.Add(b)
	checks := []struct {
		t    float64
		want int
	}{{0, 5}, {4.9, 5}, {5, 7}, {9.9, 7}, {10, 5}, {14.9, 5}, {15, 2}, {19.9, 2}, {20, 0}}
	for _, c := range checks {
		if got := sum.Value(c.t); got != c.want {
			t.Errorf("sum.Value(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	diff := sum.Sub(b)
	if !diff.Equal(a) {
		t.Errorf("(a+b)-b != a: %v vs %v", diff, a)
	}
}

func TestMin(t *testing.T) {
	a := FromSteps(Step{10, 4})
	b := FromSteps(Step{20, 2})
	mn := a.Min(b)
	if mn.Value(5) != 2 || mn.Value(15) != 0 || mn.Value(25) != 0 {
		t.Errorf("Min wrong: %v", mn)
	}
}

func TestClampMin(t *testing.T) {
	a := Constant(5).Sub(Constant(8)) // constant -3
	if got := a.ClampMin(0); !got.IsZero() {
		t.Errorf("ClampMin(0) of negative = %v", got)
	}
}

func TestAddRect(t *testing.T) {
	f := Zero().AddRect(0, 10, 3).AddRect(5, 10, 2)
	if f.Value(0) != 3 || f.Value(5) != 5 || f.Value(10) != 2 || f.Value(15) != 0 {
		t.Errorf("AddRect stack wrong: %v", f)
	}
}

func TestMinOn(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 1}, Step{10, 6})
	cases := []struct {
		t0, t1 float64
		want   int
	}{
		{0, 10, 4},
		{0, 10.1, 1},
		{10, 20, 1},
		{20, 30, 6},
		{20, Inf, 0}, // after t=30 the function is 0
		{25, 28, 6},
		{0, Inf, 0},
	}
	for _, c := range cases {
		if got := f.MinOn(c.t0, c.t1); got != c.want {
			t.Errorf("MinOn(%v,%v) = %d, want %d", c.t0, c.t1, got, c.want)
		}
	}
	if f.MinOn(5, 5) != math.MaxInt {
		t.Error("empty interval should return MaxInt")
	}
}

func TestFindHoleBasics(t *testing.T) {
	// 4 nodes for [0,10), 1 node [10,20), 6 nodes [20,30), 0 after.
	f := FromSteps(Step{10, 4}, Step{10, 1}, Step{10, 6})
	cases := []struct {
		n     int
		dur   float64
		after float64
		want  float64
	}{
		{4, 10, 0, 0},     // fits right away
		{4, 11, 0, Inf},   // 11s of 4 nodes never fits: [20,31) crosses the zero tail
		{4, 10, 1, 20},    // after=1 pushes past the [0,10) window
		{1, 30, 0, Inf},   // 30s needs [0,30) but tail is 0 beyond 30 only if start>0... [0,30) works: min(4,1,6)=1 >= 1 => 0
		{6, 10, 0, 20},    // only the last window has 6
		{7, 1, 0, Inf},    // never 7 nodes
		{1, 10.1, 0, Inf}, // any 10.1 window crosses a low segment or the zero tail... [10,20.1) min=1? value on [20,20.1)=6 -> min=1 OK! so want 0? see fixups below
	}
	// Fix expectations computed by hand:
	cases[3].want = 0
	cases[6].want = 0
	for _, c := range cases {
		if got := f.FindHole(c.n, c.dur, c.after); got != c.want {
			t.Errorf("FindHole(n=%d,dur=%v,after=%v) = %v, want %v", c.n, c.dur, c.after, got, c.want)
		}
	}
}

func TestFindHoleInfiniteDuration(t *testing.T) {
	f := FromSteps(Step{10, 1}, Step{Inf, 5})
	if got := f.FindHole(5, Inf, 0); got != 10 {
		t.Errorf("FindHole inf dur = %v, want 10", got)
	}
	if got := f.FindHole(6, Inf, 0); !math.IsInf(got, 1) {
		t.Errorf("unsatisfiable inf request = %v", got)
	}
	if got := Constant(3).FindHole(3, Inf, 7.5); got != 7.5 {
		t.Errorf("constant inf = %v, want 7.5", got)
	}
}

func TestFindHoleEdgeCases(t *testing.T) {
	f := FromSteps(Step{10, 4})
	if got := f.FindHole(0, 5, 3); got != 3 {
		t.Errorf("n=0 should start immediately, got %v", got)
	}
	if got := f.FindHole(2, 0, 3); got != 3 {
		t.Errorf("dur=0 should start immediately, got %v", got)
	}
	if got := f.FindHole(2, 5, -10); got != 0 {
		t.Errorf("negative after should clamp to 0, got %v", got)
	}
	if got := Zero().FindHole(1, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("zero profile should never fit, got %v", got)
	}
}

func TestFirstBelow(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 2}, Step{Inf, 5})
	if got := f.FirstBelow(3, 0); got != 10 {
		t.Errorf("FirstBelow(3) = %v, want 10", got)
	}
	if got := f.FirstBelow(5, 0); got != 0 {
		t.Errorf("FirstBelow(5) = %v, want 0 (value 4 < 5 at t=0)", got)
	}
	if got := f.FirstBelow(2, 0); !math.IsInf(got, 1) {
		t.Errorf("FirstBelow(2) = %v, want Inf", got)
	}
	if got := f.FirstBelow(3, 15); got != 15 {
		t.Errorf("FirstBelow(3, after=15) = %v, want 15", got)
	}
	if got := f.FirstBelow(3, 20); !math.IsInf(got, 1) {
		t.Errorf("FirstBelow(3, after=20) = %v, want Inf", got)
	}
}

func TestNonNegative(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 2})
	if !f.NonNegative() {
		t.Error("profile should be non-negative")
	}
	g := f.Sub(Constant(3))
	if g.NonNegative() {
		t.Error("difference should be negative somewhere")
	}
}

func TestEqualClone(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 2})
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone not equal")
	}
	h := FromSteps(Step{10, 4}, Step{10, 3})
	if f.Equal(h) {
		t.Error("different functions reported equal")
	}
	if !Zero().Equal(Constant(0)) {
		t.Error("zero normalizations differ")
	}
}

func TestNormalizeMergesEqualValues(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 4}, Step{10, 2})
	g := FromSteps(Step{20, 4}, Step{10, 2})
	if !f.Equal(g) {
		t.Errorf("adjacent equal segments not merged: %v vs %v", f, g)
	}
}

func TestTrimBefore(t *testing.T) {
	f := FromSteps(Step{10, 4}, Step{10, 2}, Step{Inf, 7})
	g := f.TrimBefore(15)
	if g.Value(0) != 2 || g.Value(14) != 2 {
		t.Errorf("trimmed history should hold the value at t: %v", g)
	}
	if g.Value(15) != 2 || g.Value(20) != 7 {
		t.Errorf("future must be preserved: %v", g)
	}
	if !f.TrimBefore(0).Equal(f) {
		t.Error("TrimBefore(0) should be identity")
	}
	if !Zero().TrimBefore(100).IsZero() {
		t.Error("TrimBefore on zero")
	}
	// Trimming exactly on a breakpoint keeps the new segment's value.
	h := f.TrimBefore(10)
	if h.Value(0) != 2 {
		t.Errorf("TrimBefore on breakpoint = %v", h)
	}
}

// TestNextBreakpointBoundsTrim: TrimBefore is one function from t up to
// NextBreakpoint(t) and another at it — the exactness the RMS's push skip
// relies on.
func TestNextBreakpointBoundsTrim(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		f := randFunc(r)
		at := float64(r.Intn(90)) / 2
		next := f.NextBreakpoint(at)
		for u := at; u < next && u < 100; u += 0.25 {
			if !f.TrimBefore(u).Equal(f.TrimBefore(at)) {
				t.Fatalf("%v trimmed at %g and %g differ, next breakpoint %g", f, at, u, next)
			}
		}
		if !math.IsInf(next, 1) && f.TrimBefore(next).Equal(f.TrimBefore(at)) {
			t.Fatalf("%v trimmed at %g and at its next breakpoint %g agree", f, at, next)
		}
	}
}

func TestStepsRoundTrip(t *testing.T) {
	f := FromSteps(Step{3600, 4}, Step{3600, 3})
	back := FromSteps(f.Steps()...)
	if !back.Equal(f) {
		t.Errorf("Steps round trip: %v vs %v", back, f)
	}
	zs := Zero().Steps()
	if len(zs) != 1 || zs[0].N != 0 || !math.IsInf(zs[0].Duration, 1) {
		t.Errorf("zero Steps = %v", zs)
	}
	// A function that starts above zero keeps its leading segment.
	r := Rect(5, 10, 3)
	if !FromSteps(r.Steps()...).Equal(r) {
		t.Error("Steps round trip with leading zero segment")
	}
}

func TestString(t *testing.T) {
	f := FromSteps(Step{3600, 4}, Step{3600, 3})
	want := "[(3600, 4) (3600, 3) (inf, 0)]"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := Zero().String(); got != "[(inf, 0)]" {
		t.Errorf("zero String() = %q", got)
	}
}

// randFunc builds a random step function with small integer values and
// breakpoints on a coarse grid, suitable for brute-force comparison.
func randFunc(r *rand.Rand) *StepFunc {
	f := Zero()
	for k := 0; k < r.Intn(6); k++ {
		t0 := float64(r.Intn(50))
		dur := float64(1 + r.Intn(30))
		n := r.Intn(9) - 2
		f = f.AddRect(t0, dur, n)
	}
	return f
}

func TestPropAddCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a, b := randFunc(r), randFunc(r)
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatalf("Add not commutative: %v + %v", a, b)
		}
	}
}

func TestPropSubInverse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b := randFunc(r), randFunc(r)
		if !a.Add(b).Sub(b).Equal(a) {
			t.Fatalf("(a+b)-b != a for %v, %v", a, b)
		}
	}
}

func TestPropValueConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a, b := randFunc(r), randFunc(r)
		sum, mn := a.Add(b), a.Min(b)
		for _, tt := range []float64{0, 0.5, 3, 10, 17.2, 49, 80, 200} {
			va, vb := a.Value(tt), b.Value(tt)
			if sum.Value(tt) != va+vb {
				t.Fatalf("sum mismatch at t=%v", tt)
			}
			wantMin := vb
			if vb < va {
				wantMin = vb
			} else {
				wantMin = vb
				if va < vb {
					wantMin = va
				}
			}
			if mn.Value(tt) != wantMin {
				t.Fatalf("min mismatch at t=%v: %d vs %d", tt, mn.Value(tt), wantMin)
			}
		}
	}
}

func TestPropFindHoleBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		f := randFunc(r).ClampMin(0)
		n := 1 + r.Intn(5)
		dur := float64(1 + r.Intn(20))
		after := float64(r.Intn(40))
		got := f.FindHole(n, dur, after)
		// Brute force on a fine grid (0.5 steps cover all integer+0.5
		// breakpoints created by randFunc, which uses integer times).
		brute := Inf
		for ts := after; ts < 200; ts += 0.5 {
			if f.MinOn(ts, ts+dur) >= n {
				brute = ts
				break
			}
		}
		if math.IsInf(brute, 1) != math.IsInf(got, 1) {
			t.Fatalf("FindHole feasibility mismatch: got %v brute %v (f=%v n=%d dur=%v after=%v)", got, brute, f, n, dur, after)
		}
		if !math.IsInf(got, 1) {
			if got > brute {
				t.Fatalf("FindHole not earliest: got %v brute %v (f=%v n=%d dur=%v after=%v)", got, brute, f, n, dur, after)
			}
			if f.MinOn(got, got+dur) < n {
				t.Fatalf("FindHole result infeasible: ts=%v (f=%v n=%d dur=%v)", got, f, n, dur)
			}
		}
	}
}

func TestPropQuickNormalizeAnchorsZero(t *testing.T) {
	f := func(start uint16, dur uint16, n int8) bool {
		r := Rect(float64(start), float64(dur%100)+1, int(n))
		// Invariant: defined at 0 and all breakpoints sorted.
		bps := r.AppendBreakpoints(nil)
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				return false
			}
		}
		return bps[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	f, g := Zero(), Zero()
	for k := 0; k < 50; k++ {
		f = f.AddRect(float64(r.Intn(10000)), float64(1+r.Intn(1000)), 1+r.Intn(10))
		g = g.AddRect(float64(r.Intn(10000)), float64(1+r.Intn(1000)), 1+r.Intn(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Add(g)
	}
}

func BenchmarkFindHole(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	f := Zero()
	for k := 0; k < 100; k++ {
		f = f.AddRect(float64(r.Intn(10000)), float64(1+r.Intn(1000)), 1+r.Intn(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.FindHole(5, 500, 0)
	}
}
