package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"coormv2/internal/core"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/tenants"
	"coormv2/internal/view"
)

func loadTestSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness's own metric
// and workload tables in step.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in harness", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at 1/50 of its size, untraced and traced,
// and validates the emitted records: exactly the named metrics, all finite,
// end-to-end ones non-zero, no failed operation, every correctness check
// passing — which for the traced run includes an event stream identical to
// the untraced pass of equal size.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	seconds := float64(spec.RunSeconds) / 50
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			check := func(r *result, names []string, nonZero bool) {
				t.Helper()
				if !r.Correct || r.OpsFailed != 0 || r.OpsAttempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", r.Correct, r.OpsAttempted, r.OpsFailed, r.Error)
				}
				if _, err := json.Marshal(r); err != nil {
					t.Fatalf("record does not encode: %v", err)
				}
				if len(r.Metrics) != len(names) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(names))
				}
				for _, name := range names {
					m, ok := r.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case nonZero && m.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", name, m.Value)
					}
				}
			}
			var e2e, layers []string
			for _, m := range spec.EndToEnd {
				e2e = append(e2e, m.Name)
			}
			for _, m := range spec.PerLayer {
				layers = append(layers, m.Name)
			}
			check(runUntraced(w, 7, seconds), e2e, true)

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			traced := runTraced(w, 7, seconds, spans)
			check(traced, layers, false)
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
			if len(lines) < 2 {
				t.Fatalf("span file has %d lines", len(lines))
			}
			for _, line := range lines[:2] {
				var v map[string]any
				if err := json.Unmarshal(line, &v); err != nil {
					t.Fatalf("span file line %q: %v", line, err)
				}
			}
			// Layers that must carry signal on this workload.
			for _, name := range map[string][]string{
				"wire_fleet":   {"transport.request_rtt_us", "transport.push_views_us", "transport.start_deliver_us", "transport.tx_kb_per_start", "rms.ack_to_start_us", "federation.request_us", "proto.marshal_views_us"},
				"fleet_fifo":   {"rms.round_us", "rms.round_self_us", "federation.views_per_round", "core.schedule_dirty1_us", "core.cache_hit_frac", "sim.events_per_start"},
				"fleet_drf":    {"rms.round_us", "tenants.order_us", "tenants.admit_us", "tenants.policy_calls_per_round", "core.schedule_clean_us"},
				"trace_replay": {"rms.round_us", "federation.connect_us", "core.schedule_dirty1_us", "view.trim_us", "stepfunc.steps_per_profile"},
			}[w.name] {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, traced.Metrics[name].Value, w.name)
				}
			}
		})
	}
}

func TestBlockEstimator(t *testing.T) {
	// 100 samples 1..100 in order: block k holds 10k+1..10k+10.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Block medians (nearest rank) are 5, 15, …, 95: the third best is 25
	// when lower is better, 75 when higher is.
	p50s := blockStats(xs, func(b []float64) float64 { return percentile(b, 0.50) })
	if len(p50s) != nBlocks || p50s[0] != 5 || p50s[9] != 95 {
		t.Errorf("block medians = %v", p50s)
	}
	if got := quietBlock(p50s, true); got != 25 {
		t.Errorf("quietBlock lower-is-better = %v, want 25", got)
	}
	if got := quietBlock(p50s, false); got != 75 {
		t.Errorf("quietBlock higher-is-better = %v, want 75", got)
	}
	// Seven wrecked blocks do not move it; nor do two lucky ones.
	noisy := []float64{10, 10.1, 10.2, 50, 60, 70, 80, 90, 100, 110}
	if got := quietBlock(noisy, true); got != 10.2 {
		t.Errorf("quietBlock of a mostly disturbed run = %v, want 10.2", got)
	}
	lucky := []float64{1, 2, 10, 10, 10, 10, 10, 10, 10, 10}
	if got := quietBlock(lucky, true); got != 10 {
		t.Errorf("quietBlock with two lucky blocks = %v, want 10", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0.95); got != 3 {
		t.Errorf("p95 of 3 samples = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	for k := 0; k < nBlocks; k++ {
		lo, hi := blockBounds(1234, k)
		if hi-lo < 123 || hi-lo > 124 {
			t.Errorf("block %d of 1234 has %d samples", k, hi-lo)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

type plainHandler struct{ views, starts, kills int }

func (h *plainHandler) OnViews(_, _ view.View)    { h.views++ }
func (h *plainHandler) OnStart(request.ID, []int) { h.starts++ }
func (h *plainHandler) OnKill(string)             { h.kills++ }

type fullHandler struct {
	plainHandler
	finished, reaped, nodeFails int
}

func (h *fullHandler) OnRequestFinished(request.ID)  { h.finished++ }
func (h *fullHandler) OnRequestsReaped([]request.ID) { h.reaped++ }
func (h *fullHandler) OnNodeFailure(rms.NodeFailure) { h.nodeFails++ }
func (h *fullHandler) CooperatesOnNodeFailure() bool { return false }

type observerOnly struct {
	plainHandler
	finished int
}

func (h *observerOnly) OnRequestFinished(request.ID)  { h.finished++ }
func (h *observerOnly) OnRequestsReaped([]request.ID) {}

type nodeFailOnly struct {
	plainHandler
	nodeFails int
}

func (h *nodeFailOnly) OnNodeFailure(rms.NodeFailure) { h.nodeFails++ }

// TestWrappersForwardOptionalInterfaces pins that a traced handler or
// policy has exactly the optional interfaces of what it wraps — the program
// type-asserts on them — and forwards every call.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(true)
	tr.on.Store(true)

	plain := &plainHandler{}
	w := wrapHandler(plain, tr)
	if _, ok := w.(rms.RequestObserver); ok {
		t.Error("wrapper of a plain handler observes requests")
	}
	if _, ok := w.(rms.NodeFailureHandler); ok {
		t.Error("wrapper of a plain handler handles node failures")
	}
	if rms.CooperatesOnNodeFailure(w) {
		t.Error("wrapper of a plain handler cooperates on node failure")
	}
	w.OnViews(nil, nil)
	w.OnStart(1, nil)
	w.OnKill("x")
	if *plain != (plainHandler{1, 1, 1}) {
		t.Errorf("plain handler saw %+v", *plain)
	}

	full := &fullHandler{}
	w = wrapHandler(full, tr)
	w.OnViews(nil, nil)
	w.OnStart(1, nil)
	w.OnKill("x")
	w.(rms.RequestObserver).OnRequestFinished(1)
	w.(rms.RequestObserver).OnRequestsReaped([]request.ID{1})
	w.(rms.NodeFailureHandler).OnNodeFailure(rms.NodeFailure{})
	if full.plainHandler != (plainHandler{1, 1, 1}) || full.finished != 1 || full.reaped != 1 || full.nodeFails != 1 {
		t.Errorf("full handler saw %+v", *full)
	}
	if rms.CooperatesOnNodeFailure(w) != rms.CooperatesOnNodeFailure(full) {
		t.Error("wrapper answers CooperatesOnNodeFailure differently from the handler")
	}

	obs := &observerOnly{}
	w = wrapHandler(obs, tr)
	w.(rms.RequestObserver).OnRequestFinished(1)
	if _, ok := w.(rms.NodeFailureHandler); ok || obs.finished != 1 {
		t.Errorf("observer-only wrapper: node failures %v, finished %d", ok, obs.finished)
	}

	nf := &nodeFailOnly{}
	w = wrapHandler(nf, tr)
	w.(rms.NodeFailureHandler).OnNodeFailure(rms.NodeFailure{})
	if _, ok := w.(rms.RequestObserver); ok || nf.nodeFails != 1 {
		t.Errorf("node-failure-only wrapper: observer %v, failures %d", ok, nf.nodeFails)
	}
	if !rms.CooperatesOnNodeFailure(w) {
		t.Error("wrapper of a cooperating handler does not cooperate")
	}

	if got := tr.agg[spOnViews].count; got != 2 {
		t.Errorf("%d OnViews spans, want 2", got)
	}

	if wrapPolicy(nil, tr) != nil {
		t.Error("nil policy was wrapped")
	}
	fifo := wrapPolicy(core.FIFOPolicy{}, tr)
	if _, ok := fifo.(core.VictimNominator); ok {
		t.Error("wrapper of FIFO nominates victims")
	}
	if !fifo.Stable() || fifo.Name() != "fifo" {
		t.Errorf("FIFO wrapper: stable %v name %q", fifo.Stable(), fifo.Name())
	}
	tree := tenants.NewTree()
	tree.MustAdd("t0", nil, nil)
	drf := wrapPolicy(tenants.NewDRF(tree), tr)
	vn, ok := drf.(core.VictimNominator)
	if !ok {
		t.Fatal("wrapper of DRF does not nominate victims")
	}
	info := core.RoundInfo{Clusters: map[view.ClusterID]int{"c": 4}}
	apps := []*core.AppState{core.NewAppState(1, 0)}
	if got := drf.Order(info, apps, nil); len(got) != 1 || got[0] != apps[0] {
		t.Errorf("Order returned %v", got)
	}
	if !drf.Admit(info, apps[0]) {
		t.Error("Admit refused an idle application")
	}
	if got := vn.Victims(info, apps, nil); len(got) != 0 {
		t.Errorf("Victims nominated %v", got)
	}
	if drf.Stable() || drf.Name() != "drf" {
		t.Errorf("DRF wrapper: stable %v name %q", drf.Stable(), drf.Name())
	}
	for _, sp := range []spanName{spPolicyOrder, spPolicyAdmit, spPolicyVictims} {
		if tr.agg[sp].count != 1 {
			t.Errorf("%d %s spans, want 1", tr.agg[sp].count, spanNames[sp])
		}
	}
}
