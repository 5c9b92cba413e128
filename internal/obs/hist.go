// Package obs is the observability substrate: streaming log-bucketed
// latency histograms, a bounded structured event ring, and a registry
// where every layer registers its event counters (core.SchedStats and the
// Stats() of rms.Server, federation.Federator and transport.Server), all
// behind one Snapshot with stable JSON and Prometheus text encodings.
//
// Everything here is designed to stay out of the allocation-lean hot
// paths when observability is disabled: a nil *Registry and a nil
// *Histogram are valid receivers whose recording methods no-op, so call
// sites pay one predictable branch and zero allocations.
package obs

import (
	"math"
	"sync"
)

// Bucket layout: octaves of 2 split into 8 sub-buckets each, so every
// bucket spans a ≤12.5% relative range — p50/p99/p999 come back within
// one bucket width of the exact value while Record stays a fixed-size
// array increment. Octaves cover ~9.3e-10 s .. ~1.1e12 s; values outside
// land in dedicated underflow/overflow buckets and are still exact in
// count/sum/min/max.
const (
	subBits    = 3
	subCount   = 1 << subBits
	minExp     = -30
	maxExp     = 40
	numOctaves = maxExp - minExp
	numBuckets = numOctaves*subCount + 2 // + underflow + overflow
)

// Histogram is a streaming latency histogram over
// non-negative float64 values (seconds). The zero value is ready to
// use; a nil *Histogram ignores Record calls.
type Histogram struct {
	mu      sync.Mutex
	buckets [numBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// bucketOf maps a value to its bucket index. Values ≤ 0 (including the
// sub-underflow range) land in bucket 0.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	if exp < minExp {
		return 0
	}
	if exp >= maxExp || math.IsInf(v, 1) {
		return numBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * subCount))
	if sub >= subCount {
		sub = subCount - 1
	}
	return 1 + (exp-minExp)*subCount + sub
}

// bucketMid returns the representative (midpoint) value of bucket b.
func bucketMid(b int) float64 {
	if b <= 0 {
		return 0
	}
	if b >= numBuckets-1 {
		return math.Ldexp(1, maxExp)
	}
	octave := (b - 1) / subCount
	sub := (b - 1) % subCount
	exp := minExp + octave
	// Bucket b spans [2^(exp-1)·(1+sub/subCount), 2^(exp-1)·(1+(sub+1)/subCount)).
	return math.Ldexp(1+(float64(sub)+0.5)/subCount, exp-1)
}

// Record adds one observation. Negative values are clamped to zero
// (latencies can only be non-negative; clock skew must not corrupt the
// sum). Alloc-free; safe for concurrent use; no-op on a nil receiver.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	b := bucketOf(v)
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the value at quantile q ∈ [0, 1] using the
// nearest-rank definition (rank ⌈q·n⌉), accurate to one bucket width
// (≤12.5% relative). q=0 returns the exact minimum, q=1 the exact
// maximum. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			v := bucketMid(b)
			// The exact extrema bound every bucket estimate.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistStat is the exported summary of one histogram, embedded in
// Snapshot. Field order and fixed quantiles keep the JSON encoding
// stable across runs.
type HistStat struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Stat summarizes the histogram under one lock acquisition.
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistStat{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return st
	}
	st.Mean = h.sum / float64(h.count)
	st.Min = h.min
	st.Max = h.max
	st.P50 = h.quantileLocked(0.50)
	st.P90 = h.quantileLocked(0.90)
	st.P99 = h.quantileLocked(0.99)
	st.P999 = h.quantileLocked(0.999)
	return st
}
