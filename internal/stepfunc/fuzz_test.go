package stepfunc

import "testing"

// decodeFuzzFn consumes a byte-encoded step list: one count byte, then
// (duration, value) byte pairs. Durations are small positive halves,
// values span the int8 range so negative plateaus (availability deficits)
// are covered.
func decodeFuzzFn(data []byte) (*StepFunc, []byte) {
	if len(data) == 0 {
		return Zero(), data
	}
	k := int(data[0] % 9)
	data = data[1:]
	steps := make([]Step, 0, k)
	for i := 0; i < k && len(data) >= 2; i++ {
		steps = append(steps, Step{
			Duration: float64(data[0]%32)/2 + 0.5,
			N:        int(int8(data[1])),
		})
		data = data[2:]
	}
	return FromSteps(steps...), data
}

// checkCanonical asserts the StepFunc representation invariants: strictly
// increasing breakpoint times, no two consecutive equal values, and the
// forbidden {0,0} singleton collapsed to the shared zero.
func checkCanonical(t *testing.T, f *StepFunc) {
	t.Helper()
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].t <= f.pts[i-1].t {
			t.Fatalf("non-increasing breakpoints at %d: %v", i, f.pts)
		}
		if f.pts[i].n == f.pts[i-1].n {
			t.Fatalf("uncollapsed equal run at %d: %v", i, f.pts)
		}
	}
	if len(f.pts) == 1 && f.pts[0].n == 0 {
		t.Fatalf("forbidden {0,0} singleton: %v", f.pts)
	}
}

// probeTimes gathers every breakpoint of both inputs plus midpoints and
// out-of-range probes, so the differential check sees every segment.
func probeTimes(a, b *StepFunc) []float64 {
	bps := a.AppendBreakpoints(nil)
	bps = b.AppendBreakpoints(bps)
	probes := []float64{-1, 0, 1e9}
	for _, bp := range bps {
		probes = append(probes, bp, bp-0.25, bp+0.25)
	}
	return probes
}

// FuzzCombineOps differentially checks the sort-free merge core behind
// Add/Sub/Min against naive pointwise evaluation, plus the
// representation invariants of every result.
func FuzzCombineOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 2, 8, 255, 2, 7, 2, 1, 0})
	f.Add([]byte{8, 1, 128, 1, 127, 2, 3, 63, 200, 5, 5, 4, 4, 3, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := decodeFuzzFn(data)
		b, _ := decodeFuzzFn(rest)
		ops := []struct {
			name  string
			merge func() *StepFunc
			naive func(x, y int) int
		}{
			{"add", func() *StepFunc { return a.Add(b) }, func(x, y int) int { return x + y }},
			{"sub", func() *StepFunc { return a.Sub(b) }, func(x, y int) int { return x - y }},
			{"min", func() *StepFunc { return a.Min(b) }, func(x, y int) int {
				if x < y {
					return x
				}
				return y
			}},
		}
		probes := probeTimes(a, b)
		for _, op := range ops {
			got := op.merge()
			checkCanonical(t, got)
			for _, at := range probes {
				want := op.naive(a.Value(at), b.Value(at))
				if g := got.Value(at); g != want {
					t.Fatalf("%s at t=%v: got %d, want %d (a=%v b=%v)", op.name, at, g, want, a, b)
				}
			}
		}
	})
}

// FuzzSumAll differentially checks the k-way merge against a fold over Add.
func FuzzSumAll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 10, 2, 5, 250, 1, 9, 9})
	f.Add([]byte{5, 1, 1, 1, 2, 2, 3, 200, 100, 4, 4, 1, 128, 3, 127, 2, 2, 9, 9, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0]%6) + 1
		data = data[1:]
		fs := make([]*StepFunc, 0, k+1)
		for i := 0; i < k; i++ {
			var fn *StepFunc
			fn, data = decodeFuzzFn(data)
			fs = append(fs, fn)
		}
		fs = append(fs, nil) // nil entries count as zero
		got := SumAll(fs)
		checkCanonical(t, got)
		want := Zero()
		for _, fn := range fs {
			if fn != nil {
				want = want.Add(fn)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("SumAll = %v, fold = %v (inputs %v)", got, want, fs)
		}
	})
}
