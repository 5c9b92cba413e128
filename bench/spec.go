package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the harness reports and its unit. The tables
// below are in reporting order; BENCHMARK.json at the repository root
// carries the same names with their direction and regression bound, and the
// smoke test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"start_lat_p50_ms", "ms"},
	{"start_lat_p95_ms", "ms"},
	{"starts_per_s", "1/s"},
	{"cpu_ms_per_start", "ms"},
	{"alloc_kb_per_start", "KB"},
	{"heap_live_mb", "MB"},
}

// layerDef is a per-layer metric: which end-to-end metric it should move,
// and on which workloads it carries signal (README.md has the reasoning).
type layerDef struct {
	name, unit string
	moves      string
	on         string
}

var perLayer = []layerDef{
	{"transport.request_rtt_us", "us", "start_lat_p50_ms, starts_per_s", "wire_fleet"},
	{"transport.done_rtt_us", "us", "start_lat_p50_ms, starts_per_s", "wire_fleet"},
	{"transport.call_overhead_us", "us", "start_lat_p50_ms", "wire_fleet"},
	{"transport.push_views_us", "us", "cpu_ms_per_start, starts_per_s, start_lat_p95_ms", "wire_fleet"},
	{"transport.push_start_us", "us", "cpu_ms_per_start, starts_per_s", "wire_fleet"},
	{"transport.start_deliver_us", "us", "start_lat_p50_ms", "wire_fleet"},
	{"transport.views_frames_per_start", "count", "cpu_ms_per_start, alloc_kb_per_start", "wire_fleet"},
	{"transport.tx_kb_per_start", "KB", "cpu_ms_per_start, alloc_kb_per_start", "wire_fleet"},
	{"transport.evictions", "count", "ops_failed", "wire_fleet"},
	{"transport.idem_replays", "count", "ops_failed", "wire_fleet"},
	{"transport.errors_sent", "count", "ops_failed", "wire_fleet"},
	{"proto.marshal_views_us", "us", "cpu_ms_per_start, alloc_kb_per_start", "wire_fleet"},
	{"proto.unmarshal_views_us", "us", "cpu_ms_per_start, alloc_kb_per_start", "wire_fleet"},
	{"proto.views_frame_kb", "KB", "cpu_ms_per_start, alloc_kb_per_start", "wire_fleet"},
	{"proto.allocs_per_views_frame", "count", "alloc_kb_per_start", "wire_fleet"},
	{"proto.call_codec_us", "us", "start_lat_p50_ms", "wire_fleet"},
	{"rms.ack_to_start_us", "us", "start_lat_p50_ms, start_lat_p95_ms", "wire_fleet"},
	{"rms.round_us", "us", "starts_per_s, start_lat_p50_ms", "fleet_fifo, fleet_drf, trace_replay"},
	{"rms.rounds_per_start", "count", "starts_per_s", "all"},
	{"rms.round_self_us", "us", "cpu_ms_per_start, alloc_kb_per_start", "fleet_fifo"},
	{"federation.request_us", "us", "start_lat_p50_ms", "wire_fleet"},
	{"federation.done_us", "us", "start_lat_p50_ms", "wire_fleet"},
	{"federation.connect_us", "us", "cpu_ms_per_start", "trace_replay"},
	{"federation.views_per_round", "count", "alloc_kb_per_start, cpu_ms_per_start", "fleet_fifo, wire_fleet"},
	{"federation.merge_dirty_frac", "frac", "alloc_kb_per_start, cpu_ms_per_start", "fleet_fifo, wire_fleet"},
	{"core.schedule_clean_us", "us", "starts_per_s, cpu_ms_per_start", "fleet_drf, trace_replay"},
	{"core.schedule_dirty1_us", "us", "starts_per_s, cpu_ms_per_start", "fleet_drf, trace_replay"},
	{"core.allocs_per_round", "count", "alloc_kb_per_start", "fleet_drf, trace_replay"},
	{"core.cache_hit_frac", "frac", "starts_per_s", "fleet_fifo (high), fleet_drf (≈0)"},
	{"tenants.order_us", "us", "starts_per_s, cpu_ms_per_start", "fleet_drf"},
	{"tenants.admit_us", "us", "starts_per_s, cpu_ms_per_start", "fleet_drf"},
	{"tenants.policy_calls_per_round", "count", "starts_per_s, cpu_ms_per_start", "fleet_drf"},
	{"view.trim_us", "us", "cpu_ms_per_start", "trace_replay, fleet_fifo"},
	{"view.equal_us", "us", "cpu_ms_per_start", "trace_replay, fleet_fifo"},
	{"view.sum_us", "us", "cpu_ms_per_start", "trace_replay, fleet_fifo"},
	{"stepfunc.steps_per_profile", "count", "cpu_ms_per_start", "trace_replay, fleet_fifo"},
	{"sim.events_per_start", "count", "harness health", "fleet_fifo, fleet_drf, trace_replay"},
	{"trace.overhead_frac", "frac", "harness health", "all"},
}

// workloadDef sizes one workload. Work is fixed, never a wall-clock window
// or a rate search: a run of --seconds s executes opsPerSecond × s timed
// operations (an operation is one request driven to its OnStart), after a
// warm-up of warmupFrac of that, so sample counts, allocation totals and
// end-of-run heap compare across commits. opsPerSecond is this commit's
// measured rate on the 2-vCPU reference box, frozen here.
type workloadDef struct {
	name         string
	opsPerSecond float64
	warmupFrac   float64
	// oneProc runs the workload at GOMAXPROCS 1. The simulated-clock
	// workloads are one goroutine by construction, so the second processor
	// only ever runs the concurrent collector — and how fast a shared box's
	// second vCPU happens to run it was the dominant noise: ±10 % on
	// starts_per_s between runs of one binary, against ±2 % on one
	// processor. On one processor collection is also paid on the measured
	// path, so an allocation saving shows in starts_per_s.
	oneProc bool
	fleet   string
}

var workloads = []workloadDef{
	{"wire_fleet", 125, 0.10, false, "32 clusters × 256 nodes, 4 shards, 64 drain sessions + 1 driver over loopback TCP, RealClock, 1 ms interval"},
	{"fleet_fifo", 350, 0.10, true, "32 clusters × 256 nodes, 4 shards, 256 standing apps + 1 churn session, SimClock, FIFO"},
	{"fleet_drf", 185, 0.10, true, "fleet_fifo with tenants.NewDRF per shard (t0 guaranteed half of every cluster)"},
	{"trace_replay", 400, 0.10, true, "4 shards × 32 nodes, 64 closed-loop users submitting synthetic rigid jobs, 4 PSAs, 1 evolving app, SimClock"},
}

// traceDivisor is how much smaller the traced run is.
const traceDivisor = 5

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes returns the timed and warm-up operation counts of a run.
func (w *workloadDef) sizes(seconds float64, traced bool) (ops, warm int) {
	n := w.opsPerSecond * seconds
	if traced {
		n /= traceDivisor
	}
	ops = int(math.Round(n))
	if ops < 2*nBlocks {
		ops = 2 * nBlocks
	}
	warm = int(math.Round(float64(ops) * w.warmupFrac))
	if warm < 1 {
		warm = 1
	}
	return ops, warm
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
