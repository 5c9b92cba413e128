package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"coormv2/internal/federation"
)

// setupRepeats is how many times a run builds and warms its fixture; the
// median is reported as setup_s and the last fixture is the one measured.
const setupRepeats = 3

// fixture is one built workload: the program under test plus the load
// generator around it.
type fixture interface {
	// run drives n operations, recording them in p (nil during warm-up).
	run(n int, p *phase) error
	// drain finishes work the operations left behind.
	drain() error
	// check verifies the program's outputs and invariants.
	check() error
	close()
	federator() *federation.Federator
	// events is the engine's event stream (nil under the real clock).
	events() *eventStream
	// interval is the shards' re-scheduling interval in clock seconds.
	interval() float64
}

func build(w *workloadDef, seed int64, ops, warm int, tr *tracer) (fixture, error) {
	switch w.name {
	case "wire_fleet":
		return asFixture(buildWireFleet(seed, tr))
	case "fleet_fifo", "fleet_drf":
		return asFixture(buildSimFleet(seed, w.name == "fleet_drf", tr))
	case "trace_replay":
		return asFixture(buildTraceReplay(seed, ops+warm+replaySlack, tr))
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// asFixture keeps a failed build's nil pointer from becoming a non-nil
// fixture.
func asFixture[T fixture](f T, err error) (fixture, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// box identifies where and from what a record was measured.
type box struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func fingerprint() box {
	b := box{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				b.GitRev = s.Value
			}
		}
	}
	return b
}

// result is one run's record.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Error        string            `json:"error,omitempty"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Metrics      map[string]metric `json:"metrics"`
	// Info rides along and is never compared: whole-run percentiles, the
	// sample count, per-repeat set-up times, the event-stream hash.
	Info map[string]any `json:"info"`
	Box  box            `json:"box"`
}

func (r *result) fail(err error) {
	r.Correct = false
	if r.Error == "" {
		r.Error = err.Error()
	}
}

// measured is what one timed pass over a fixture yields.
type measured struct {
	p       *phase
	hash    uint64
	events  int64
	outputs *replayOutputs
}

// timedPass runs the timed phase on a warmed fixture and checks it.
func timedPass(fx fixture, ops int, res *result) measured {
	p := newPhase(ops)
	var ev0 int64
	if s := fx.events(); s != nil {
		ev0 = s.count
	}
	p.begin()
	err := fx.run(ops, p)
	if err == nil {
		err = fx.drain()
	}
	p.end()
	runtime.KeepAlive(fx)
	if err != nil {
		res.fail(err)
	} else if err := fx.check(); err != nil {
		res.fail(err)
	}
	m := measured{p: p}
	if s := fx.events(); s != nil {
		m.hash, m.events = s.hash, s.count-ev0
	}
	if r, ok := fx.(*traceReplay); ok {
		out := r.outputs()
		m.outputs = &out
	}
	res.OpsAttempted = ops
	// Operations an aborted run never reached have failed too.
	res.OpsFailed = p.failed + ops - len(p.latMs)
	return m
}

func (m measured) info(info map[string]any) {
	info["n"] = len(m.p.latMs)
	info["start_lat_whole_run_ms"] = map[string]float64{
		"p50": percentile(m.p.latMs, 0.50), "p95": percentile(m.p.latMs, 0.95), "p99": percentile(m.p.latMs, 0.99),
	}
	info["timed_wall_s"] = m.p.wall.Seconds()
	info["block_starts_per_s"] = m.p.blockRates()
	if m.events > 0 {
		info["event_hash"] = fmt.Sprintf("%016x", m.hash)
		info["events"] = m.events
	}
	if m.outputs != nil {
		info["replay"] = m.outputs
	}
}

// newResult starts a run's record. It first applies the workload's
// processor setting, which the box fingerprint then reports.
func newResult(w *workloadDef, seed int64, seconds float64, traced bool) *result {
	procs := runtime.NumCPU()
	if w.oneProc {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	return &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Metrics: map[string]metric{}, Info: map[string]any{"fleet": w.fleet}, Box: fingerprint()}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workloadDef, seed int64, seconds float64) *result {
	res := newResult(w, seed, seconds, false)
	ops, warm := w.sizes(seconds, false)
	var fx fixture
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		fx, err = build(w, seed, ops, warm, nil)
		if err == nil {
			err = fx.run(warm, nil)
		}
		if err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			res.OpsAttempted, res.OpsFailed = ops, ops
			if fx != nil {
				fx.close()
			}
			return res
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer fx.close()
	m := timedPass(fx, ops, res)
	vals := m.p.endToEndValues()
	vals["setup_s"] = median(setups)
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
	}
	m.info(res.Info)
	res.Info["setup_samples_s"] = setups
	res.Info["warmup_ops"] = warm
	return res
}

// shardTotals sums the schedulers' cache counters and the merge counters.
type shardTotals struct {
	schedules          int64 // core.Schedule calls: two per rms round
	reused, recomputed int64
	mergeDirty         int64
	mergeClean         int64
}

func totals(fed *federation.Federator) shardTotals {
	var t shardTotals
	for i := 0; i < fed.NumShards(); i++ {
		s := fed.Shard(i).SchedStats()
		t.schedules += s.Rounds
		t.reused += s.ArtifactsReused + s.CBFReused + s.EqOccReused + s.WalksReused + s.EqAppReused
		t.recomputed += s.ArtifactsRecomputed + s.CBFRecomputed + s.EqOccRecomputed + s.WalksRecomputed + s.EqAppRecomputed
	}
	t.mergeDirty, t.mergeClean = fed.MergeStats()
	return t
}

func (t shardTotals) minus(o shardTotals) shardTotals {
	t.schedules -= o.schedules
	t.reused -= o.reused
	t.recomputed -= o.recomputed
	t.mergeDirty -= o.mergeDirty
	t.mergeClean -= o.mergeClean
	return t
}

// finite maps the NaN and ±Inf an aborted run can produce to 0: JSON cannot
// carry them, and the run is reported incorrect anyway.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer metrics: an untraced reference pass and a
// traced pass of the same, smaller size, then the layer replays.
func runTraced(w *workloadDef, seed int64, seconds float64, spanFile string) *result {
	res := newResult(w, seed, seconds, true)
	ops, warm := w.sizes(seconds, true)

	pass := func(tr *tracer, body func(fx fixture) measured) (measured, bool) {
		fx, err := build(w, seed, ops, warm, tr)
		if err == nil {
			defer fx.close()
			err = fx.run(warm, nil)
		}
		if err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			res.OpsAttempted, res.OpsFailed = ops, ops
			return measured{}, false
		}
		return body(fx), true
	}

	// The tracer's span buffer exists during both passes: a larger live heap
	// makes the collector run less often, which would otherwise show up as
	// negative tracing overhead.
	tr := newTracer(w.name != "wire_fleet")
	ref, ok := pass(nil, func(fx fixture) measured { return timedPass(fx, ops, res) })
	if !ok || !res.Correct {
		return res
	}

	lay := layerReplays{}
	var delta, replayed shardTotals
	var wire wireCounters
	traced, ok := pass(tr, func(fx fixture) measured {
		fed := fx.federator()
		before := totals(fed)
		coreReplay := func() {
			was := tr.on.Swap(false)
			t0 := totals(fed)
			lay.core(fed)
			replayed = totals(fed).minus(t0)
			tr.on.Store(was)
		}
		if r, isReplay := fx.(*traceReplay); isReplay {
			// At the end of a replay the schedulers are empty; read them
			// mid-trace, while the queues are deep.
			r.midpoint = coreReplay
		}
		wf, isWire := fx.(*wireFleet)
		if isWire {
			wire = wf.counters()
		}
		tr.on.Store(true)
		m := timedPass(fx, ops, res)
		tr.on.Store(false)
		if isWire {
			wire = wf.counters().minus(wire)
		}
		delta = totals(fed).minus(before).minus(replayed)
		if _, isReplay := fx.(*traceReplay); !isReplay {
			coreReplay()
		}
		lay.codecAndViews(tr.capturedViews(), fed.Now()+fx.interval())
		return m
	})
	if !ok {
		return res
	}
	if ref.events > 0 && (ref.hash != traced.hash || ref.events != traced.events) {
		res.fail(fmt.Errorf("tracing perturbed the schedule: event stream %016x/%d untraced, %016x/%d traced",
			ref.hash, ref.events, traced.hash, traced.events))
	}
	if ref.outputs != nil && *ref.outputs != *traced.outputs {
		res.fail(fmt.Errorf("tracing perturbed the replay: %+v untraced, %+v traced", *ref.outputs, *traced.outputs))
	}

	n := float64(ops)
	rounds := float64(delta.schedules) / 2
	v := map[string]float64{
		"transport.request_rtt_us":   tr.meanUs(spClientReq),
		"transport.done_rtt_us":      tr.meanUs(spClientDone),
		"transport.start_deliver_us": tr.meanUs(spStartDeliver),
		"rms.ack_to_start_us":        tr.meanUs(spAckToStart),
		"rms.round_us":               tr.meanUs(spRound),
		"rms.rounds_per_start":       rounds / n,
		"federation.request_us":      tr.meanUs(spFedRequest),
		"federation.done_us":         tr.meanUs(spFedDone),
		"federation.connect_us":      tr.meanUs(spFedConnect),
		"federation.views_per_round": ratio(float64(tr.agg[spOnViews].count), rounds),
		"federation.merge_dirty_frac": ratio(float64(delta.mergeDirty),
			float64(delta.mergeDirty+delta.mergeClean)),
		"core.cache_hit_frac": ratio(float64(delta.reused), float64(delta.reused+delta.recomputed)),
		"tenants.order_us":    tr.meanUs(spPolicyOrder),
		"tenants.admit_us":    tr.meanUs(spPolicyAdmit),
		"tenants.policy_calls_per_round": ratio(float64(tr.agg[spPolicyOrder].count+
			tr.agg[spPolicyAdmit].count+tr.agg[spPolicyVictims].count), rounds),
		"sim.events_per_start": float64(traced.events) / n,
		"trace.overhead_frac":  1 - ratio(traced.p.rate(), ref.p.rate()),
	}
	for name, x := range lay {
		v[name] = x
	}
	if tr.agg[spRound].count > 0 {
		// What the round spends outside the policy, the handlers and the two
		// core.Schedule calls: rms bookkeeping plus federation's per-session
		// merge, which no public seam separates.
		v["rms.round_self_us"] = math.Max(0, tr.selfMeanUs(spRound)-2*v["core.schedule_dirty1_us"])
	}
	if w.name == "wire_fleet" {
		v["transport.call_overhead_us"] = v["transport.request_rtt_us"] - v["federation.request_us"]
		v["transport.push_views_us"] = tr.meanUs(spOnViews)
		v["transport.push_start_us"] = tr.meanUs(spOnStart)
		// The driver's socket cannot be counted from outside; it receives
		// what every drain receives, so the drains' bytes are scaled up.
		scale := float64(wireFleetSessions+1) / wireFleetSessions
		v["transport.tx_kb_per_start"] = float64(wire.rxBytes) * scale / 1024 / n
		v["transport.views_frames_per_start"] = float64(wire.rxFrames+wire.driverViews) / n
		v["transport.evictions"] = float64(wire.evictions)
		v["transport.idem_replays"] = float64(wire.idemReplays)
		v["transport.errors_sent"] = float64(wire.errorsSent)
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{finite(v[d.name]), d.unit}
	}
	traced.info(res.Info)
	res.Info["untraced_starts_per_s"] = ref.p.rate()
	res.Info["traced_starts_per_s"] = traced.p.rate()
	if spanFile != "" {
		header := map[string]any{"workload": w.name, "seed": seed, "ops": ops, "box": res.Box}
		if err := tr.writeSpans(spanFile, header); err != nil {
			res.fail(fmt.Errorf("span file: %w", err))
		} else {
			res.Info["span_file"] = spanFile
		}
	}
	return res
}
