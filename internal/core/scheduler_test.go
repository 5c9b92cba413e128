package core

import (
	"math"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

const c0 = view.ClusterID("c0")

func newSched(n int) *Scheduler {
	return NewScheduler(map[view.ClusterID]int{c0: n})
}

// gathered is one Schedule round's result collected into by-application
// view maps, the shape the tests compare rounds in.
type gathered struct {
	NonPreemptViews map[int]view.View
	PreemptViews    map[int]view.View
	ToStart         []*request.Request
}

// gather collects every application's views after a round that returned
// toStart. It allocates, so it stays out of AllocsPerRun closures.
func gather(s *Scheduler, toStart []*request.Request) *gathered {
	g := &gathered{
		NonPreemptViews: make(map[int]view.View, len(s.apps)),
		PreemptViews:    make(map[int]view.View, len(s.apps)),
		ToStart:         toStart,
	}
	for _, a := range s.Apps() {
		g.NonPreemptViews[a.ID], g.PreemptViews[a.ID] = a.Views()
	}
	return g
}

// sameFrags reports whether two preemptive views hold the same fragment
// objects at the same clusters: Views builds a fresh map on every call, so
// fragment identity is what a round that keeps an application's preemptive
// view keeps.
func sameFrags(a, b view.View) bool {
	if a.Len() != b.Len() {
		return false
	}
	for cid, f := range a.All() {
		if g, ok := b.Lookup(cid); !ok || g != f {
			return false
		}
	}
	return true
}

// submit creates, validates and adds a request to the right set.
func submit(t *testing.T, s *Scheduler, a *AppState, id request.ID, n int, dur float64,
	typ request.Type, how request.Relation, parent *request.Request) *request.Request {
	t.Helper()
	r := request.New(id, a.ID, c0, n, dur, typ, how, parent)
	if err := r.Validate(); err != nil {
		t.Fatalf("invalid test request: %v", err)
	}
	a.SetFor(typ).Add(r)
	s.MarkAppDirty(a.ID)
	return r
}

// start marks a request started at time now, as the RMS layer would —
// including the RMS's duty to report the mutation to the scheduler.
func start(s *Scheduler, r *request.Request, now float64) {
	r.StartedAt = now
	s.MarkAppDirty(r.AppID)
}

func TestScheduleEmpty(t *testing.T) {
	s := newSched(10)
	out := gather(s, s.Schedule(0))
	if len(out.ToStart) != 0 || len(out.NonPreemptViews) != 0 {
		t.Error("empty scheduler should produce empty outcome")
	}
}

func TestScheduleRigidJob(t *testing.T) {
	// A rigid application (§4): a single non-preemptible request with no
	// pre-allocation. It is implicitly wrapped and starts immediately.
	s := newSched(10)
	a := s.AddApp(1, 0)
	r := submit(t, s, a, 1, 4, 100, request.NonPreempt, request.Free, nil)
	out := gather(s, s.Schedule(0))
	if r.ScheduledAt != 0 {
		t.Errorf("rigid request at %v, want 0", r.ScheduledAt)
	}
	if !r.Wrapped {
		t.Error("request with no covering pre-allocation must be wrapped")
	}
	if len(out.ToStart) != 1 || out.ToStart[0] != r {
		t.Errorf("ToStart = %v", out.ToStart)
	}
}

func TestScheduleRigidJobsQueueFCFS(t *testing.T) {
	// Two rigid jobs of 6 nodes on a 10-node cluster: the second must wait
	// for the first to finish (conservative back-filling in connect order).
	s := newSched(10)
	a := s.AddApp(1, 0)
	b := s.AddApp(2, 1)
	ra := submit(t, s, a, 1, 6, 100, request.NonPreempt, request.Free, nil)
	rb := submit(t, s, b, 2, 6, 100, request.NonPreempt, request.Free, nil)
	out := gather(s, s.Schedule(1))
	if ra.ScheduledAt != 1 {
		t.Errorf("first job at %v, want 1", ra.ScheduledAt)
	}
	if rb.ScheduledAt != 101 {
		t.Errorf("second job at %v, want 101 (after first ends)", rb.ScheduledAt)
	}
	if len(out.ToStart) != 1 || out.ToStart[0] != ra {
		t.Error("only the first job should start now")
	}
}

func TestScheduleBackfillSmallJob(t *testing.T) {
	// CBF: a small job that fits beside the running big one starts
	// immediately even though an earlier-connected large job is queued.
	s := newSched(10)
	a := s.AddApp(1, 0)
	big := submit(t, s, a, 1, 8, 100, request.NonPreempt, request.Free, nil)
	start(s, big, 0)
	s.Schedule(0)

	b := s.AddApp(2, 1)
	queued := submit(t, s, b, 2, 8, 50, request.NonPreempt, request.Free, nil)
	c := s.AddApp(3, 2)
	small := submit(t, s, c, 3, 2, 50, request.NonPreempt, request.Free, nil)
	s.Schedule(2)
	if queued.ScheduledAt != 100 {
		t.Errorf("queued big job at %v, want 100", queued.ScheduledAt)
	}
	if small.ScheduledAt != 2 {
		t.Errorf("backfilled small job at %v, want 2", small.ScheduledAt)
	}
}

func TestSchedulePreAllocationReservesSpace(t *testing.T) {
	// App 1 pre-allocates 8 of 10 nodes but allocates only 2. App 2's
	// non-preemptible request of 4 nodes must NOT fit now (pre-allocated
	// resources cannot be allocated non-preemptibly to another application,
	// §3.1.1) — but a preemptible request can fill them.
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 8, 1000, request.PreAlloc, request.Free, nil)
	np := submit(t, s, a, 2, 2, 1000, request.NonPreempt, request.Coalloc, pa)
	out := gather(s, s.Schedule(0))
	if pa.ScheduledAt != 0 || np.ScheduledAt != 0 {
		t.Fatalf("PA/NP at %v/%v, want 0/0", pa.ScheduledAt, np.ScheduledAt)
	}
	start(s, pa, 0)
	start(s, np, 0)

	b := s.AddApp(2, 1)
	rnp := submit(t, s, b, 3, 4, 100, request.NonPreempt, request.Free, nil)
	rp := submit(t, s, b, 4, 8, math.Inf(1), request.Preempt, request.Free, nil)
	out = gather(s, s.Schedule(1))

	if rnp.ScheduledAt != 1000 {
		t.Errorf("¬P into pre-allocated space at %v, want 1000 (when PA ends)", rnp.ScheduledAt)
	}
	// The preemptive view shows capacity minus *allocated* (2), not minus
	// pre-allocated (8): 8 nodes preemptibly available.
	if got := out.PreemptViews[2].Get(c0).Value(1); got != 8 {
		t.Errorf("preemptive view = %d, want 8 (PA-but-unused is fillable)", got)
	}
	if rp.NAlloc != 8 {
		t.Errorf("preemptible NAlloc = %d, want 8", rp.NAlloc)
	}
}

func TestScheduleNonPreemptInsidePreAllocGuaranteed(t *testing.T) {
	// The core promise (§3.1.3): updates inside a started pre-allocation
	// are guaranteed, even if malleable applications currently occupy the
	// physical nodes.
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 8, 1000, request.PreAlloc, request.Free, nil)
	np1 := submit(t, s, a, 2, 2, 1000, request.NonPreempt, request.Coalloc, pa)
	s.Schedule(0)
	start(s, pa, 0)
	start(s, np1, 0)

	// A malleable app fills the 8 unused nodes.
	b := s.AddApp(2, 1)
	rp := submit(t, s, b, 3, 8, math.Inf(1), request.Preempt, request.Free, nil)
	s.Schedule(1)
	start(s, rp, 1)
	rp.NodeIDs = []int{2, 3, 4, 5, 6, 7, 8, 9}
	s.MarkAppDirty(rp.AppID)

	// Spontaneous update at t=50: request 6 nodes NEXT after np1, done(np1).
	np2 := submit(t, s, a, 4, 6, 950, request.NonPreempt, request.Next, np1)
	np1.Duration = 50 // done() shortens the current request
	np1.Finished = true
	s.MarkAppDirty(np1.AppID)
	out := gather(s, s.Schedule(50))

	if np2.ScheduledAt != 50 {
		t.Errorf("update scheduled at %v, want 50 (guaranteed inside PA)", np2.ScheduledAt)
	}
	if !np2.Fixed {
		t.Error("update inside PA should be fixed (pinned to the chain)")
	}
	if np2.Wrapped {
		t.Error("in-PA update must not be wrapped")
	}
	// The malleable app's view must drop to 4 (8 PA − 6 now allocated = 2
	// free in PA... total 10 − 6 allocated = 4 preemptible).
	if got := out.PreemptViews[2].Get(c0).Value(50); got != 4 {
		t.Errorf("preemptive view after update = %d, want 4", got)
	}
	if rp.NAlloc != 4 {
		t.Errorf("preemptible NAlloc after update = %d, want 4 (release signal)", rp.NAlloc)
	}
}

// TestScheduleFreeNonPreemptInsideFullPreAlloc: a FREE ¬P request that only
// its application's started pre-allocation can hold starts at once, though
// no node of the cluster is free: the space it is fitted into is the
// pre-allocation's plus the free space (line 9).
func TestScheduleFreeNonPreemptInsideFullPreAlloc(t *testing.T) {
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 10, 1000, request.PreAlloc, request.Free, nil)
	s.Schedule(0)
	start(s, pa, 0)
	np := submit(t, s, a, 2, 6, 100, request.NonPreempt, request.Free, nil)
	s.Schedule(5)
	if np.ScheduledAt != 5 || np.Wrapped {
		t.Errorf("request inside the full pre-allocation scheduled at %v (wrapped %v), want 5, not wrapped", np.ScheduledAt, np.Wrapped)
	}
}

func TestScheduleTwoPreAllocationsQueued(t *testing.T) {
	// §4: two NEAs whose pre-allocations cannot fit simultaneously are run
	// one after the other so peak requirements can always be met.
	s := newSched(10)
	a := s.AddApp(1, 0)
	paA := submit(t, s, a, 1, 7, 500, request.PreAlloc, request.Free, nil)
	s.Schedule(0)
	start(s, paA, 0)

	b := s.AddApp(2, 1)
	paB := submit(t, s, b, 2, 7, 500, request.PreAlloc, request.Free, nil)
	out := gather(s, s.Schedule(1))
	if paB.ScheduledAt != 500 {
		t.Errorf("second PA at %v, want 500 (queued after first)", paB.ScheduledAt)
	}
	if len(out.ToStart) != 0 {
		t.Error("nothing should start at t=1")
	}

	// Two small pre-allocations fit side by side.
	c := s.AddApp(3, 2)
	paC := submit(t, s, c, 3, 3, 100, request.PreAlloc, request.Free, nil)
	s.Schedule(2)
	if paC.ScheduledAt != 2 {
		t.Errorf("small PA at %v, want 2 (fits beside the started one)", paC.ScheduledAt)
	}
}

func TestScheduleNonPreemptViewShowsOwnPA(t *testing.T) {
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 8, 1000, request.PreAlloc, request.Free, nil)
	s.Schedule(0)
	start(s, pa, 0)
	s.AddApp(2, 1)
	out := gather(s, s.Schedule(1))
	// App 1 sees its own PA space (8) plus the free nodes (2) = 10.
	if got := out.NonPreemptViews[1].Get(c0).Value(1); got != 10 {
		t.Errorf("app1 ¬P view = %d, want 10", got)
	}
	// App 2 sees only the 2 free nodes while the PA lasts.
	if got := out.NonPreemptViews[2].Get(c0).Value(1); got != 2 {
		t.Errorf("app2 ¬P view = %d, want 2", got)
	}
	if got := out.NonPreemptViews[2].Get(c0).Value(1001); got != 10 {
		t.Errorf("app2 ¬P view after PA = %d, want 10", got)
	}
}

func TestScheduleClipLimitsPreAllocation(t *testing.T) {
	// §3.2: "the amount of resources that an application can pre-allocate
	// can be limited, by clipping its non-preemptible view."
	s := newSched(10)
	s.SetClip(view.Constant(4, c0))
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 8, 100, request.PreAlloc, request.Free, nil)
	out := gather(s, s.Schedule(0))
	if got := out.NonPreemptViews[1].Get(c0).Value(0); got != 4 {
		t.Errorf("clipped view = %d, want 4", got)
	}
	if !math.IsInf(pa.ScheduledAt, 1) {
		t.Errorf("8-node PA under a 4-node clip should never be scheduled, got %v", pa.ScheduledAt)
	}
}

func TestScheduleNoOversubscription(t *testing.T) {
	// Sum of all non-preemptible+preemptible NAlloc at any time must not
	// exceed capacity, in a busy mixed scenario.
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 6, 1000, request.PreAlloc, request.Free, nil)
	np := submit(t, s, a, 2, 3, 1000, request.NonPreempt, request.Coalloc, pa)
	s.Schedule(0)
	start(s, pa, 0)
	start(s, np, 0)

	b := s.AddApp(2, 1)
	rp1 := submit(t, s, b, 3, 10, math.Inf(1), request.Preempt, request.Free, nil)
	c := s.AddApp(3, 2)
	rp2 := submit(t, s, c, 4, 10, math.Inf(1), request.Preempt, request.Free, nil)
	s.Schedule(2)
	start(s, rp1, 2)
	start(s, rp2, 2)

	d := s.AddApp(4, 3)
	rnp := submit(t, s, d, 5, 4, 100, request.NonPreempt, request.Free, nil)
	out := gather(s, s.Schedule(3))
	_ = out

	for _, tt := range []float64{3, 10, 500, 1500} {
		total := np.NAlloc // started ¬P
		if rnp.Started() || (rnp.ScheduledAt <= tt && tt < rnp.ScheduledAt+rnp.Duration) {
			total += rnp.NAlloc
		}
		for _, r := range []*request.Request{rp1, rp2} {
			if r.ScheduledAt <= tt {
				total += r.NAlloc
			}
		}
		if tt >= 1000 {
			total -= np.NAlloc // np ends at 1000
		}
		if total > 10 {
			t.Errorf("t=%v: total allocated %d > capacity 10", tt, total)
		}
	}
}

func TestScheduleAddRemoveApp(t *testing.T) {
	s := newSched(10)
	s.AddApp(1, 0)
	s.AddApp(2, 1)
	if s.App(1) == nil || s.App(3) != nil {
		t.Error("App lookup broken")
	}
	if got := s.RemoveApp(1); got == nil || got.ID != 1 {
		t.Error("RemoveApp broken")
	}
	if s.RemoveApp(1) != nil {
		t.Error("double remove should return nil")
	}
	if len(s.Apps()) != 1 {
		t.Error("apps list wrong after remove")
	}
}

func TestScheduleDuplicateAppPanics(t *testing.T) {
	s := newSched(10)
	s.AddApp(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate app ID should panic")
		}
	}()
	s.AddApp(1, 5)
}

func TestSchedulerAppOrderByConnectTime(t *testing.T) {
	s := newSched(10)
	s.AddApp(5, 3)
	s.AddApp(1, 1)
	s.AddApp(9, 2)
	ids := []int{}
	for _, a := range s.Apps() {
		ids = append(ids, a.ID)
	}
	want := []int{1, 9, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("app order = %v, want %v", ids, want)
		}
	}
}

func TestScheduleToStartOrdering(t *testing.T) {
	// Parent requests must be listed before their children so the RMS can
	// transfer node IDs along NEXT chains.
	s := newSched(10)
	a := s.AddApp(1, 0)
	pa := submit(t, s, a, 1, 5, 100, request.PreAlloc, request.Free, nil)
	np := submit(t, s, a, 2, 3, 100, request.NonPreempt, request.Coalloc, pa)
	out := gather(s, s.Schedule(0))
	if len(out.ToStart) != 2 {
		t.Fatalf("ToStart = %v, want 2 entries", out.ToStart)
	}
	if out.ToStart[0] != pa || out.ToStart[1] != np {
		t.Errorf("ToStart order = [%v %v], want parent first", out.ToStart[0], out.ToStart[1])
	}
}

func TestScheduleCapacityAccessors(t *testing.T) {
	s := newSched(10)
	if s.Capacity(c0) != 10 {
		t.Error("Capacity accessor")
	}
	if s.Policy() != EquiPartitionFilling {
		t.Error("default policy should be filling")
	}
	s.SetPolicy(StrictEquiPartition)
	if s.Policy() != StrictEquiPartition {
		t.Error("SetPolicy")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	NewScheduler(map[view.ClusterID]int{c0: -1})
}
