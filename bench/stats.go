package main

import (
	"math"
	"sort"
)

// nBlocks is the number of equal-count blocks the timed operations are cut
// into. A statistic is computed per block and the quiet-block estimate over
// the blocks is reported (see quietBlock).
const nBlocks = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
// It sorts a copy. NaN on empty input.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle value (mean of the two middle values for an
// even count). NaN on empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// blockBounds returns the [lo, hi) index range of block k of n samples.
func blockBounds(n, k int) (lo, hi int) {
	return k * n / nBlocks, (k + 1) * n / nBlocks
}

// blockStats cuts xs (in operation order) into nBlocks equal-count blocks
// and applies stat to each. With fewer samples than blocks it degrades to
// stat over everything.
func blockStats(xs []float64, stat func([]float64) float64) []float64 {
	if len(xs) < nBlocks {
		return []float64{stat(xs)}
	}
	vals := make([]float64, 0, nBlocks)
	for k := 0; k < nBlocks; k++ {
		lo, hi := blockBounds(len(xs), k)
		vals = append(vals, stat(xs[lo:hi]))
	}
	return vals
}

// quietBlock returns the lower quartile of the block values, counted from
// the good end: the third best of ten. Interference on a shared box — a
// neighbour on the sibling hyperthread or in the cache, seen here as
// stretches of 20–240 s during which the same binary runs 15–40 % slower,
// with no steal and no other process on the box — only ever makes a block
// worse, so the blocks it touched least are the best estimate of the
// program's own cost; a median over blocks follows the interference as
// soon as it covers half a run. Taking the third best rather than the best
// keeps one or two lucky blocks from setting the number.
func quietBlock(vals []float64, lowerIsBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if !lowerIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// quartiles returns Q1, the median and Q3 by the "exclusive" method —
// the one Python's statistics.quantiles(values, n=4) uses, so spreads
// computed here match the acceptance driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 0 {
			return math.NaN()
		}
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
