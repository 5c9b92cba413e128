package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMean(t *testing.T) {
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Errorf("Mean([1..4]) = %v, want 2.5", Mean([]float64{1, 2, 3, 4}))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !almostEq(Mean([]float64{-5}), -5, 0) {
		t.Error("Mean of singleton")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{[]float64{1, 1, 1, 9}, 1},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	_ = Median(in)
	want := []float64{5, 1, 4, 2, 3}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("Median mutated input: %v", in)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 30 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v", got)
	}
	if got := Percentile(xs, 10); !almostEq(got, 14, 1e-9) {
		t.Errorf("P10 = %v, want 14 (interpolated)", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, 4}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 4, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLinearGeneral(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x=2, y=1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-9) || !almostEq(x[1], 1, 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Error("expected singular-matrix error")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Leading zero forces a pivot swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{7, 9}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 9, 1e-12) || !almostEq(x[1], 7, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Error("SolveLinear mutated its inputs")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// y = 3*x1 + 2*x2 exactly determined by 2 independent rows plus one
	// redundant row.
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	y := []float64{3, 2, 5}
	beta, err := SolveLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 3, 1e-9) || !almostEq(beta[1], 2, 1e-9) {
		t.Errorf("beta = %v", beta)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit a line y = a + b*x through noisy points; least squares of
	// symmetric residuals recovers the underlying slope exactly.
	rows := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{0.1, 0.9, 2.1, 2.9} // around y = x
	beta, err := SolveLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 0, 0.1) || !almostEq(beta[1], 1, 0.1) {
		t.Errorf("beta = %v, want ~[0 1]", beta)
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	if _, err := SolveLeastSquares(nil, nil); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := SolveLeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("want error for mismatched rows/targets")
	}
	if _, err := SolveLeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("want error for ragged rows")
	}
}

func TestSolveLeastSquaresRecoversSpeedupForm(t *testing.T) {
	// The exact use-case of Fig. 2: t = A*S/n + B*n + C*S + D.
	A, B, C, D := 7.26e-3, 1.23e-4, 1.13e-6, 1.38
	var rows [][]float64
	var y []float64
	for _, n := range []float64{1, 4, 16, 64, 256, 1024} {
		for _, S := range []float64{12288, 49152, 200704, 802816} {
			rows = append(rows, []float64{S / n, n, S, 1})
			y = append(y, A*S/n+B*n+C*S+D)
		}
	}
	beta, err := SolveLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{A, B, C, D} {
		if math.Abs(beta[i]-want)/want > 1e-6 {
			t.Errorf("param %d: got %v want %v", i, beta[i], want)
		}
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 10, 11)
	if len(xs) != 11 || xs[0] != 0 || xs[10] != 10 || xs[5] != 5 {
		t.Errorf("Linspace = %v", xs)
	}
}

func TestLogspace(t *testing.T) {
	xs := Logspace(1, 100, 3)
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 100 || !almostEq(xs[1], 10, 1e-9) {
		t.Errorf("Logspace = %v", xs)
	}
}

func TestLogspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Logspace should panic on non-positive bounds")
		}
	}()
	Logspace(0, 10, 3)
}
