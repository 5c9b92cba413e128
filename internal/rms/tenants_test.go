package rms

import (
	"math"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/tenants"
	"coormv2/internal/view"
)

// finishWatcher extends testApp with the RequestObserver hook so a test
// can see quota-preemption revocations arrive as OnRequestFinished.
type finishWatcher struct {
	testApp
	finished []request.ID
}

func (a *finishWatcher) OnRequestFinished(id request.ID) { a.finished = append(a.finished, id) }
func (a *finishWatcher) OnRequestsReaped([]request.ID)   {}

// TestQuotaPreemptionRecoversGuarantee drives the DRF policy through the
// full server: two batch applications saturate the cluster with
// open-ended preemptible work; a guaranteed tenant then asks for its
// share. The policy nominates the batch allocations, the server revokes
// them (nodes back to the pool, OnRequestFinished delivered, counters
// stamped), and the guaranteed tenant physically starts on the freed
// nodes within the next rounds.
func TestQuotaPreemptionRecoversGuarantee(t *testing.T) {
	tree := tenants.NewTree()
	tree.MustAdd("prod", tenants.Resources{c0: 8}, nil)
	tree.MustAdd("batch", nil, nil)

	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	reg := obs.NewRegistry()
	s := NewServer(Config{
		Clusters: map[view.ClusterID]int{c0: 12}, Clock: clock.SimClock{E: e},
		Scheduling: tenants.NewDRF(tree), Metrics: rec, Obs: reg,
	})

	var batch [2]*finishWatcher
	for i := range batch {
		batch[i] = &finishWatcher{}
		batch[i].sess = connect(s, batch[i], WithTenant("batch"))
		if _, err := submit(batch[i].sess, RequestSpec{
			Cluster: c0, N: 6, Duration: math.Inf(1), Type: request.Preempt,
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if loads := s.TenantLoads(); loads["batch"][c0] != 12 {
		t.Fatalf("batch holds %d nodes, want the full 12 before prod arrives", loads["batch"][c0])
	}

	prod := &finishWatcher{}
	prod.sess = connect(s, prod, WithTenant("prod"))
	if tenant, ok := s.TenantOf(prod.sess.AppID()); !ok || tenant != "prod" {
		t.Fatalf("TenantOf = %q,%v, want prod,true", tenant, ok)
	}
	if _, err := submit(prod.sess, RequestSpec{
		Cluster: c0, N: 8, Duration: math.Inf(1), Type: request.NonPreempt,
	}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()

	// The guaranteed queue physically recovered its share — through
	// request-level revocation, within one re-scheduling interval, NOT
	// through the app-level grace kill (grace is 5 intervals and the
	// batch sessions must survive with their sessions intact).
	if loads := s.TenantLoads(); loads["prod"][c0] < 8 {
		t.Fatalf("prod holds %d nodes, want ≥ its guarantee of 8 (loads: %v)", loads["prod"][c0], loads)
	}
	for i := range batch {
		if batch[i].killed != "" {
			t.Fatalf("batch[%d] was grace-killed (%q); quota preemption must revoke requests, not apps", i, batch[i].killed)
		}
	}
	// The revocations were real terminations, visible everywhere: the
	// applications heard OnRequestFinished, the per-tenant counter and the
	// server's preempted_requests counter advanced, and the event trace carries EvPreempt.
	revoked := len(batch[0].finished) + len(batch[1].finished)
	if revoked == 0 {
		t.Fatal("no batch request was revoked")
	}
	if got := s.TenantPreempts()["batch"]; got != int64(revoked) {
		t.Fatalf("TenantPreempts[batch] = %d, want %d", got, revoked)
	}
	if got := s.Stats()["preempted_requests"]; got != int64(revoked) {
		t.Fatalf("preempted_requests counter = %d, want %d", got, revoked)
	}
	events := 0
	for _, ev := range reg.Events() {
		if ev.Type == obs.EvPreempt {
			events++
		}
	}
	if events != revoked {
		t.Fatalf("EvPreempt events = %d, want %d", events, revoked)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after preemption: %v", err)
	}

	// Per-tenant wait histograms materialized under their queue labels.
	snap := reg.Snapshot(s.Now())
	if _, ok := snap.Histograms["tenant.prod.wait_seconds"]; !ok {
		t.Fatalf("missing per-tenant wait histogram (have %v)", histNames(snap))
	}
	// And the counter source reports the revocations per tenant.
	if snap.Counters["tenants.preempted.batch"] != int64(revoked) {
		t.Fatalf("obs counter preempted.batch = %d, want %d",
			snap.Counters["tenants.preempted.batch"], revoked)
	}
}

func histNames(snap obs.Snapshot) []string {
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	return names
}

// TestTenantLabelInertUnderFIFO pins that tagging sessions without a
// scheduling policy changes nothing: the label rides along, no victim
// machinery runs, and the default path stays on the incremental caches.
func TestTenantLabelInertUnderFIFO(t *testing.T) {
	e, s := newTestServer(8)
	app := &testApp{}
	app.sess = connect(s, app, WithTenant("org/team"))
	if _, err := submit(app.sess, RequestSpec{
		Cluster: c0, N: 4, Duration: math.Inf(1), Type: request.NonPreempt,
	}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if tenant, ok := s.TenantOf(app.sess.AppID()); !ok || tenant != "org/team" {
		t.Fatalf("TenantOf = %q,%v, want org/team,true", tenant, ok)
	}
	if loads := s.TenantLoads(); loads["org/team"][c0] != 4 {
		t.Fatalf("TenantLoads = %v, want org/team holding 4", loads)
	}
	if n := len(s.TenantPreempts()); n != 0 {
		t.Fatalf("TenantPreempts has %d entries under FIFO, want 0", n)
	}
	// Two idle rounds on unchanged state must be served from the
	// incremental caches: tenant labels alone must not force recomputes.
	s.ScheduleNow()
	before := s.SchedStats()
	s.ScheduleNow()
	after := s.SchedStats()
	if after.CBFReused == before.CBFReused {
		t.Fatal("incremental caches dead under FIFO with tenant labels")
	}
	if after.FullRounds != before.FullRounds {
		t.Fatal("idle FIFO round recomputed from scratch under a tenant label")
	}
}
