// Package stats provides small, dependency-free statistical helpers used
// throughout the CooRMv2 reproduction: deterministic random sources,
// descriptive statistics, and a dense linear least-squares solver used to
// fit the AMR speed-up model (paper §2.2, Fig. 2).
//
// All randomness in the repository flows through *rand.Rand instances
// created by NewRand so that every experiment is reproducible from a seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic pseudo-random source for the given seed.
// Experiments derive per-run seeds from a base seed plus run index so that
// parameter sweeps are independent yet reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input,
// mirroring the behaviour of the other aggregates in this package.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying the input slice.
// It returns NaN for empty input.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Min returns the minimum of xs (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// SolveLeastSquares solves the linear least-squares problem min ||X·beta − y||²
// where X is given row-major (len(rows) observations, each with the same
// number of features) via the normal equations XᵀX·beta = Xᵀy. The problem
// sizes in this repository are tiny (4 parameters), so the O(k³) Gaussian
// elimination is more than adequate.
//
// It returns an error if the dimensions are inconsistent or the normal
// matrix is singular to working precision.
func SolveLeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("stats: no observations")
	}
	if len(rows) != len(y) {
		return nil, fmt.Errorf("stats: %d rows but %d targets", len(rows), len(y))
	}
	k := len(rows[0])
	if k == 0 {
		return nil, fmt.Errorf("stats: zero features")
	}
	// Build normal equations.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for r, row := range rows {
		if len(row) != k {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", r, len(row), k)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	return SolveLinear(xtx, xty)
}

// SolveLinear solves the dense linear system A·x = b using Gaussian
// elimination with partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: bad system dimensions")
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: matrix is not square")
		}
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular matrix at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x, nil
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Logspace returns n logarithmically spaced values from lo to hi inclusive.
// lo and hi must be positive and n at least 2.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("stats: Logspace needs positive bounds")
	}
	ls := Linspace(math.Log(lo), math.Log(hi), n)
	for i, v := range ls {
		ls[i] = math.Exp(v)
	}
	ls[0], ls[n-1] = lo, hi
	return ls
}
