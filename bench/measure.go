package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// startLimit is the latency limit of one operation: a request whose start
// has not been observed this long after submission has failed.
const startLimit = 5 * time.Second

// phase records the timed operations of one run. An operation is one
// request driven to its OnStart. Failed operations stay in every
// denominator and carry the latency limit as their latency.
type phase struct {
	ops    int
	latMs  []float64       // per-op submit→start latency, in op order
	doneAt []time.Duration // per-op completion instant since begin
	failed int

	t0 time.Time
	// Process CPU and bytes allocated, sampled at begin and at the end of
	// every block.
	cpuAt   []time.Duration
	allocAt []uint64

	wall     time.Duration
	heapLive uint64
}

func newPhase(ops int) *phase {
	return &phase{ops: ops, latMs: make([]float64, 0, ops), doneAt: make([]time.Duration, 0, ops)}
}

// allocatedBytes returns the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it can be sampled
// inside the timed phase.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func (p *phase) sample() {
	p.cpuAt = append(p.cpuAt, processCPU())
	p.allocAt = append(p.allocAt, allocatedBytes())
}

// stamp marks the completion of the operation just recorded, and samples
// CPU and allocation when it closes a block.
func (p *phase) stamp() {
	p.doneAt = append(p.doneAt, time.Since(p.t0))
	_, hi := blockBounds(p.ops, len(p.cpuAt)-1)
	if len(p.doneAt) == hi {
		p.sample()
	}
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) begin() {
	p.sample()
	p.t0 = time.Now()
}

// op records one operation that started after lat.
func (p *phase) op(lat time.Duration) {
	if lat > startLimit {
		p.fail()
		return
	}
	p.latMs = append(p.latMs, float64(lat)/1e6)
	p.stamp()
}

// fail records one operation that missed the latency limit or errored.
func (p *phase) fail() {
	p.failed++
	p.latMs = append(p.latMs, float64(startLimit)/1e6)
	p.stamp()
}

// end closes the timed phase. The fixture must still be reachable by the
// caller: heapLive is what stays after two collections with it live.
func (p *phase) end() {
	p.wall = time.Since(p.t0)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapLive = ms.HeapAlloc
}

// perBlock returns, for every completed block, f(ops in the block, wall,
// CPU and bytes allocated over it). Block k spans from the completion of
// the last op of block k−1 (the phase start for k = 0) to the completion of
// its own last op.
func (p *phase) perBlock(f func(ops float64, wall, cpu time.Duration, alloc uint64) float64) []float64 {
	var vals []float64
	var prev time.Duration
	for k := 0; k+1 < len(p.cpuAt); k++ {
		lo, hi := blockBounds(p.ops, k)
		end := p.doneAt[hi-1]
		vals = append(vals, f(float64(hi-lo), end-prev, p.cpuAt[k+1]-p.cpuAt[k], p.allocAt[k+1]-p.allocAt[k]))
		prev = end
	}
	return vals
}

// blockRates returns operations per second of each block.
func (p *phase) blockRates() []float64 {
	return p.perBlock(func(ops float64, wall, _ time.Duration, _ uint64) float64 { return ops / wall.Seconds() })
}

// rate returns the run's starts_per_s: the quiet-block estimate of the
// per-block rates.
func (p *phase) rate() float64 { return quietBlock(p.blockRates(), false) }

// endToEndValues computes the six per-phase end-to-end metrics (setup_s is
// measured by the caller). Everything but the end-of-run heap is the
// quiet-block estimate of a per-block statistic.
func (p *phase) endToEndValues() map[string]float64 {
	return map[string]float64{
		"start_lat_p50_ms": quietBlock(blockStats(p.latMs, func(b []float64) float64 { return percentile(b, 0.50) }), true),
		"start_lat_p95_ms": quietBlock(blockStats(p.latMs, func(b []float64) float64 { return percentile(b, 0.95) }), true),
		"starts_per_s":     p.rate(),
		"cpu_ms_per_start": quietBlock(p.perBlock(func(ops float64, _, cpu time.Duration, _ uint64) float64 {
			return float64(cpu) / 1e6 / ops
		}), true),
		"alloc_kb_per_start": quietBlock(p.perBlock(func(ops float64, _, _ time.Duration, alloc uint64) float64 {
			return float64(alloc) / 1024 / ops
		}), true),
		"heap_live_mb": float64(p.heapLive) / (1 << 20),
	}
}
