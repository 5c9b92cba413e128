package stepfunc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------------
// Naive reference implementation. This is the seed's sort-based algebra,
// retained verbatim in spirit: operands are merged into an unsorted point
// pile and normalized with a stable sort. The merge-based production code
// must match it point for point.
// ---------------------------------------------------------------------------

func naiveNormalize(pts []point) *StepFunc {
	if len(pts) == 0 {
		return Zero()
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
	out := make([]point, 0, len(pts)+1)
	if pts[0].t > 0 {
		out = append(out, point{0, 0})
	}
	for _, p := range pts {
		if len(out) > 0 && out[len(out)-1].t == p.t {
			out[len(out)-1].n = p.n // later point at same t wins
			continue
		}
		out = append(out, p)
	}
	merged := out[:0]
	for _, p := range out {
		if len(merged) > 0 && merged[len(merged)-1].n == p.n {
			continue
		}
		merged = append(merged, p)
	}
	if len(merged) == 1 && merged[0].n == 0 {
		return Zero()
	}
	return &StepFunc{pts: merged}
}

func naiveCombine(f, g *StepFunc, op func(a, b int) int) *StepFunc {
	i, j := 0, 0
	var pts []point
	va, vb := 0, 0
	for i < len(f.pts) || j < len(g.pts) {
		var t float64
		switch {
		case i < len(f.pts) && j < len(g.pts):
			t = math.Min(f.pts[i].t, g.pts[j].t)
		case i < len(f.pts):
			t = f.pts[i].t
		default:
			t = g.pts[j].t
		}
		if i < len(f.pts) && f.pts[i].t == t {
			va = f.pts[i].n
			i++
		}
		if j < len(g.pts) && g.pts[j].t == t {
			vb = g.pts[j].n
			j++
		}
		pts = append(pts, point{t, op(va, vb)})
	}
	return naiveNormalize(pts)
}

func naiveAdd(f, g *StepFunc) *StepFunc {
	return naiveCombine(f, g, func(a, b int) int { return a + b })
}
func naiveSub(f, g *StepFunc) *StepFunc {
	return naiveCombine(f, g, func(a, b int) int { return a - b })
}
func naiveMin(f, g *StepFunc) *StepFunc {
	return naiveCombine(f, g, func(a, b int) int {
		if a < b {
			return a
		}
		return b
	})
}
func naiveMax(f, g *StepFunc) *StepFunc {
	return naiveCombine(f, g, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
}
func naiveClampMin(f *StepFunc, lo int) *StepFunc { return naiveMax(f, Constant(lo)) }
func naiveAddRect(f *StepFunc, t0, dur float64, n int) *StepFunc {
	return naiveAdd(f, Rect(t0, dur, n))
}

// randProfile builds a random normalized profile with values in [-5, 9].
func randProfile(r *rand.Rand) *StepFunc {
	k := r.Intn(8)
	var pts []point
	t := 0.0
	for i := 0; i < k; i++ {
		pts = append(pts, point{t, r.Intn(15) - 5})
		t += float64(1 + r.Intn(100))
	}
	return naiveNormalize(pts)
}

// TestDifferentialMergeVsNaive cross-checks every merge-based operation
// against the naive sort-based reference on randomized profiles.
func TestDifferentialMergeVsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		f, g := randProfile(r), randProfile(r)
		check := func(name string, got, want *StepFunc) {
			t.Helper()
			if !got.Equal(want) {
				t.Fatalf("iter %d: %s mismatch\n f=%v\n g=%v\n got=%v\n want=%v",
					iter, name, f, g, got, want)
			}
		}
		check("Add", f.Add(g), naiveAdd(f, g))
		check("Sub", f.Sub(g), naiveSub(f, g))
		check("Min", f.Min(g), naiveMin(f, g))

		lo := r.Intn(7) - 3
		check("ClampMin", f.ClampMin(lo), naiveClampMin(f, lo))

		t0 := float64(r.Intn(300))
		dur := float64(1 + r.Intn(300))
		if r.Intn(8) == 0 {
			dur = Inf
		}
		n := r.Intn(11) - 5
		if n == 0 {
			n = 1
		}
		check("AddRect", f.AddRect(t0, dur, n), naiveAddRect(f, t0, dur, n))

		// SumAll against a fold of naive Adds.
		fs := []*StepFunc{f, g, randProfile(r), randProfile(r), randProfile(r)}
		want := Zero()
		for _, h := range fs {
			want = naiveAdd(want, h)
		}
		check("SumAll", SumAll(fs), want)
	}
}

// TestDifferentialBuilder feeds randomized (time, value) sequences through
// the Builder and checks the result against FromSteps.
func TestDifferentialBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var b Builder
	for iter := 0; iter < 2000; iter++ {
		b.Reset()
		k := r.Intn(8)
		t0 := 0.0
		var steps []Step
		for i := 0; i < k; i++ {
			dur := float64(1 + r.Intn(100))
			n := r.Intn(7) - 2
			b.Append(t0, n)
			steps = append(steps, Step{dur, n})
			t0 += dur
		}
		b.Append(t0, 0)
		got, want := b.Fn(), FromSteps(steps...)
		if !got.Equal(want) {
			t.Fatalf("iter %d: Builder mismatch: got=%v want=%v (steps %v)", iter, got, want, steps)
		}
	}
}

// TestOperationsStayNormalized asserts the representation invariant on
// random results: anchored at 0, strictly increasing times, no repeated
// values, no {0,0} singleton.
func TestOperationsStayNormalized(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	assert := func(f *StepFunc) {
		t.Helper()
		if len(f.pts) == 0 {
			return
		}
		if f.pts[0].t != 0 {
			t.Fatalf("not anchored: %v", f)
		}
		if len(f.pts) == 1 && f.pts[0].n == 0 {
			t.Fatalf("unnormalized zero: %v", f)
		}
		for i := 1; i < len(f.pts); i++ {
			if f.pts[i].t <= f.pts[i-1].t {
				t.Fatalf("times not strictly increasing: %v", f)
			}
			if f.pts[i].n == f.pts[i-1].n {
				t.Fatalf("repeated value: %v", f)
			}
		}
	}
	for iter := 0; iter < 3000; iter++ {
		f, g := randProfile(r), randProfile(r)
		assert(f.Add(g))
		assert(f.Sub(g))
		assert(f.Min(g))
		assert(f.ClampMin(r.Intn(5) - 2))
		assert(f.AddRect(float64(r.Intn(50)), float64(1+r.Intn(50)), r.Intn(9)-4))
		assert(f.TrimBefore(float64(r.Intn(200))))
		assert(SumAll([]*StepFunc{f, g}))
	}
}

// ---------------------------------------------------------------------------
// Allocation-regression tests: the merge-based core must do exactly one
// exact-capacity slice allocation plus one header per fresh result.
// ---------------------------------------------------------------------------

func TestAllocsBinaryOps(t *testing.T) {
	f := FromSteps(Step{3600, 4}, Step{3600, 3}, Step{1800, 7})
	g := FromSteps(Step{1200, 2}, Step{4000, 5}, Step{900, 1})
	cases := []struct {
		name string
		op   func() *StepFunc
		max  float64
	}{
		{"Add", func() *StepFunc { return f.Add(g) }, 2},
		{"Sub", func() *StepFunc { return f.Sub(g) }, 2},
		{"Min", func() *StepFunc { return f.Min(g) }, 2},
		{"AddRect", func() *StepFunc { return f.AddRect(600, 5000, 3) }, 2},
		{"ClampMin", func() *StepFunc { return f.Sub(g).ClampMin(0) }, 4}, // Sub(2) + clamp(2)
		{"SumAll3", func() *StepFunc { return SumAll([]*StepFunc{f, g, f}) }, 5},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() {
			if c.op() == nil {
				t.Fatal("nil result")
			}
		})
		if got > c.max {
			t.Errorf("%s: %v allocs/op, want <= %v", c.name, got, c.max)
		}
	}
}

func TestAllocsIdentityFastPaths(t *testing.T) {
	f := FromSteps(Step{3600, 4}, Step{3600, 3})
	z := Zero()
	cases := []struct {
		name string
		op   func() *StepFunc
		want *StepFunc
	}{
		{"Add zero right", func() *StepFunc { return f.Add(z) }, f},
		{"Add zero left", func() *StepFunc { return z.Add(f) }, f},
		{"Sub zero", func() *StepFunc { return f.Sub(z) }, f},
		{"ClampMin no-op", func() *StepFunc { return f.ClampMin(0) }, f},
		{"AddRect empty", func() *StepFunc { return f.AddRect(10, 0, 5) }, f},
		{"TrimBefore zero", func() *StepFunc { return f.TrimBefore(0) }, f},
	}
	for _, c := range cases {
		if got := c.op(); got != c.want {
			t.Errorf("%s: expected the identical operand back, got %v", c.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { c.op() }); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
}
