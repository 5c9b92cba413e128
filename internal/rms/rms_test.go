package rms

import (
	"errors"
	"math"
	"slices"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

const c0 = view.ClusterID("c0")

// testApp is a programmable AppHandler that records everything.
type testApp struct {
	sess   *Session
	views  []struct{ np, p view.View }
	starts []struct {
		id  request.ID
		ids []int
	}
	killed  string
	onViews func(np, p view.View)
	onStart func(id request.ID, ids []int)
}

func (a *testApp) OnViews(np, p view.View) {
	a.views = append(a.views, struct{ np, p view.View }{np, p})
	if a.onViews != nil {
		a.onViews(np, p)
	}
}

func (a *testApp) OnStart(id request.ID, ids []int) {
	a.starts = append(a.starts, struct {
		id  request.ID
		ids []int
	}{id, ids})
	if a.onStart != nil {
		a.onStart(id, ids)
	}
}

func (a *testApp) OnKill(reason string) { a.killed = reason }

// lastViews returns the last pushed non-preemptive view and the preemptive
// one every pushed segment adds up to.
func (a *testApp) lastViews(t *testing.T) (view.View, view.View) {
	t.Helper()
	if len(a.views) == 0 {
		t.Fatal("no views received")
	}
	p := view.New()
	for _, v := range a.views {
		patch(p, v.p)
	}
	return a.views[len(a.views)-1].np, p
}

func newTestServer(nodes int) (*sim.Engine, *Server) {
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: nodes},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
	})
	return e, s
}

func TestConnectReceivesInitialViews(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	e.RunAll()
	np, p := app.lastViews(t)
	if np.Get(c0).Value(0) != 10 {
		t.Errorf("initial non-preemptive view = %d, want 10", np.Get(c0).Value(0))
	}
	if p.Get(c0).Value(0) != 10 {
		t.Errorf("initial preemptive view = %d, want 10", p.Get(c0).Value(0))
	}
}

func TestRigidJobLifecycle(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(app.starts) != 1 || app.starts[0].id != id {
		t.Fatalf("starts = %v", app.starts)
	}
	if len(app.starts[0].ids) != 4 {
		t.Errorf("node IDs = %v, want 4 IDs", app.starts[0].ids)
	}
	// After the 100 s duration the resources are free again.
	if got := s.pools[c0].available(); got != 10 {
		t.Errorf("pool after expiry = %d, want 10", got)
	}
	if e.Now() < 100 {
		t.Errorf("simulation ended at %v, expected to pass the expiry wake-up", e.Now())
	}
}

func TestRequestValidationErrors(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	e.RunAll()
	if _, err := submit(app.sess, RequestSpec{Cluster: "nope", N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("unknown cluster should error")
	}
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 0, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: 999}); err == nil {
		t.Error("dangling RelatedTo should error")
	}
	if err := app.sess.Done(999, nil); err == nil {
		t.Error("done on unknown request should error")
	}
}

func TestDoneOnPendingWithdraws(t *testing.T) {
	e, s := newTestServer(4)
	a := &testApp{}
	a.sess = connect(s, a)
	// Fill the cluster so the next request queues.
	id1, _ := submit(a.sess, RequestSpec{Cluster: c0, N: 4, Duration: 1000, Type: request.NonPreempt})
	e.Run(5)
	_ = id1
	b := &testApp{}
	b.sess = connect(s, b)
	id2, _ := submit(b.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.NonPreempt})
	e.Run(e.Now() + 10)
	if len(b.starts) != 0 {
		t.Fatal("queued request must not start")
	}
	if err := b.sess.Done(id2, nil); err != nil {
		t.Fatalf("withdrawing pending request: %v", err)
	}
	e.RunAll()
	if len(b.starts) != 0 {
		t.Error("withdrawn request must never start")
	}
}

func TestSpontaneousUpdateGrow(t *testing.T) {
	// §3.1.3 / Fig. 6(b): request(new) NEXT current, then done(current).
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	cur, _ := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 1000, Type: request.NonPreempt})
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatal("initial request did not start")
	}
	firstIDs := app.starts[0].ids

	next, err := submit(app.sess, RequestSpec{Cluster: c0, N: 5, Duration: 1000,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: cur})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.sess.Done(cur, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(app.starts) != 2 || app.starts[1].id != next {
		t.Fatalf("update did not start: %v", app.starts)
	}
	got := app.starts[1].ids
	if len(got) != 5 {
		t.Fatalf("grown allocation = %v, want 5 IDs", got)
	}
	// The original IDs must be carried over (NEXT shares common resources).
	for _, id := range firstIDs {
		if !slices.Contains(got, id) {
			t.Errorf("ID %d not carried over into %v", id, got)
		}
	}
}

func TestSpontaneousUpdateShrink(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	cur, _ := submit(app.sess, RequestSpec{Cluster: c0, N: 5, Duration: 1000, Type: request.NonPreempt})
	e.Run(5)
	held := app.starts[0].ids

	next, _ := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 1000,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: cur})
	// The application chooses which IDs to release (§3.1.2).
	release := held[2:]
	if err := app.sess.Done(cur, release); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(app.starts) != 2 || app.starts[1].id != next {
		t.Fatalf("shrink update did not start: %+v", app.starts)
	}
	got := app.starts[1].ids
	if len(got) != 2 || got[0] != held[0] || got[1] != held[1] {
		t.Errorf("kept IDs = %v, want %v", got, held[:2])
	}
	if s.pools[c0].available() != 8 {
		t.Errorf("pool = %d, want 8 free", s.pools[c0].available())
	}
}

func TestDoneWithForeignIDErrors(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	cur, _ := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 1000, Type: request.NonPreempt})
	e.Run(5)
	_, _ = submit(app.sess, RequestSpec{Cluster: c0, N: 1, Duration: 1000,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: cur})
	if err := app.sess.Done(cur, []int{99}); err == nil {
		t.Error("releasing a node ID the request does not hold should error")
	}
	// The failed done() must leave the request untouched and retryable —
	// not half-finished with node IDs that can never return to the pool.
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v", app.starts)
	}
	if err := app.sess.Done(cur, app.starts[0].ids[:1]); err != nil {
		t.Fatalf("retrying done() after a rejected release: %v", err)
	}
	e.RunAll()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreallocationAndMalleableFilling(t *testing.T) {
	// The Fig. 8 interaction: an NEA pre-allocates, allocates little; a
	// malleable app fills the rest; the NEA's spontaneous update reclaims.
	e, s := newTestServer(10)

	nea := &testApp{}
	nea.sess = connect(s, nea)
	pa, _ := submit(nea.sess, RequestSpec{Cluster: c0, N: 8, Duration: 10000, Type: request.PreAlloc})
	np1, _ := submit(nea.sess, RequestSpec{Cluster: c0, N: 2, Duration: 10000,
		Type: request.NonPreempt, RelatedHow: request.Coalloc, RelatedTo: pa})
	e.Run(2)
	if len(nea.starts) != 2 {
		t.Fatalf("NEA starts = %v", nea.starts)
	}

	// Malleable application: reactive, releases on demand.
	mal := &testApp{}
	var malReq request.ID
	var malHeld []int
	mal.onViews = func(_, p view.View) {
		avail := p.Get(c0).Value(s.Now())
		if avail < len(malHeld) {
			// Release |held| - avail immediately (kill tasks).
			keep := malHeld[:avail]
			rel := malHeld[avail:]
			newReq, err := submit(mal.sess, RequestSpec{Cluster: c0, N: avail, Duration: math.Inf(1),
				Type: request.Preempt, RelatedHow: request.Next, RelatedTo: malReq})
			if err != nil {
				t.Errorf("malleable shrink request: %v", err)
				return
			}
			if err := mal.sess.Done(malReq, rel); err != nil {
				t.Errorf("malleable shrink done: %v", err)
				return
			}
			malReq = newReq
			malHeld = keep
		}
	}
	mal.onStart = func(id request.ID, ids []int) {
		if len(ids) > 0 {
			malHeld = ids
		}
	}
	mal.sess = connect(s, mal)
	malReq, _ = submit(mal.sess, RequestSpec{Cluster: c0, N: 8, Duration: math.Inf(1), Type: request.Preempt})
	e.Run(5)
	if len(malHeld) != 8 {
		t.Fatalf("malleable app should hold 8 nodes, has %v", malHeld)
	}

	// NEA spontaneous update: 2 -> 7 nodes, all inside the pre-allocation.
	np2, _ := submit(nea.sess, RequestSpec{Cluster: c0, N: 7, Duration: 10000,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: np1})
	if err := nea.sess.Done(np1, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(20)

	var gotNp2 []int
	for _, st := range nea.starts {
		if st.id == np2 {
			gotNp2 = st.ids
		}
	}
	if len(gotNp2) != 7 {
		t.Fatalf("NEA update not served: starts=%+v", nea.starts)
	}
	if len(malHeld) != 3 {
		t.Errorf("malleable app should have shrunk to 3, has %d", len(malHeld))
	}
	if mal.killed != "" {
		t.Errorf("cooperative app was killed: %s", mal.killed)
	}
}

func TestStealerGetsKilled(t *testing.T) {
	// An application that never releases preempted resources is killed
	// after the grace period (§A.6 extension).
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 10},
		ReschedInterval: 1,
		GracePeriod:     5,
		Clock:           clock.SimClock{E: e},
	})
	stealer := &testApp{} // ignores its views entirely
	stealer.sess = connect(s, stealer)
	_, _ = submit(stealer.sess, RequestSpec{Cluster: c0, N: 10, Duration: math.Inf(1), Type: request.Preempt})
	e.Run(2)
	if len(stealer.starts) != 1 {
		t.Fatal("preemptible request did not start")
	}

	// A non-preemptible job now needs the nodes.
	rigid := &testApp{}
	rigid.sess = connect(s, rigid)
	_, _ = submit(rigid.sess, RequestSpec{Cluster: c0, N: 6, Duration: 100, Type: request.NonPreempt})
	e.Run(30)

	if stealer.killed == "" {
		t.Fatal("stealer was not killed")
	}
	if len(rigid.starts) != 1 {
		t.Fatal("rigid job never started after the kill")
	}
	// Operations on a killed session error out.
	if _, err := submit(stealer.sess, RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("request on killed session should error")
	}
	if err := stealer.sess.Done(1, nil); err == nil {
		t.Error("done on killed session should error")
	}
}

func TestDeferredStartWaitsForRelease(t *testing.T) {
	// §A.5 situation 2: insufficient free nodes; the RMS waits for done()
	// and then allocates.
	e, s := newTestServer(10)
	holder := &testApp{}
	holder.sess = connect(s, holder)
	hid, _ := submit(holder.sess, RequestSpec{Cluster: c0, N: 10, Duration: math.Inf(1), Type: request.Preempt})
	e.Run(2)

	rigid := &testApp{}
	rigid.sess = connect(s, rigid)
	_, _ = submit(rigid.sess, RequestSpec{Cluster: c0, N: 4, Duration: 50, Type: request.NonPreempt})
	e.Run(4)
	if len(rigid.starts) != 0 {
		t.Fatal("rigid start should be deferred while IDs are held")
	}
	// Holder cooperates now.
	held := holder.starts[0].ids
	nid, _ := submit(holder.sess, RequestSpec{Cluster: c0, N: 6, Duration: math.Inf(1),
		Type: request.Preempt, RelatedHow: request.Next, RelatedTo: hid})
	_ = nid
	if err := holder.sess.Done(hid, held[6:]); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(rigid.starts) != 1 {
		t.Fatal("rigid job did not start after release")
	}
}

func TestDisconnectFreesResources(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	_, _ = submit(app.sess, RequestSpec{Cluster: c0, N: 7, Duration: 1000, Type: request.NonPreempt})
	e.Run(2)
	app.sess.Disconnect()
	e.RunAll()
	if s.pools[c0].available() != 10 {
		t.Errorf("pool after disconnect = %d, want 10", s.pools[c0].available())
	}
	if len(s.sessions) != 0 {
		t.Error("session not removed")
	}
}

func TestViewsPushedOnlyOnChange(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	e.RunAll()
	n := len(app.views)
	if n == 0 {
		t.Fatal("no initial view push")
	}
	// An idle stretch with no state change: no new pushes.
	_, _ = submit(app.sess, RequestSpec{Cluster: c0, N: 1, Duration: 10, Type: request.NonPreempt})
	e.RunAll()
	after := len(app.views)
	if after == n {
		t.Fatal("request should have changed the views")
	}
	_ = s
}

func TestMetricsIntegration(t *testing.T) {
	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 10},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Metrics:         rec,
	})
	app := &testApp{}
	app.sess = connect(s, app)
	pa, _ := submit(app.sess, RequestSpec{Cluster: c0, N: 8, Duration: 100, Type: request.PreAlloc})
	_, _ = submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100,
		Type: request.NonPreempt, RelatedHow: request.Coalloc, RelatedTo: pa})
	e.RunAll()
	id := app.sess.AppID()
	if got := rec.Area(id, 100); math.Abs(got-400) > 1 {
		t.Errorf("allocated area = %v, want ~400", got)
	}
	if got := rec.PreAllocArea(id, 100); math.Abs(got-800) > 10 {
		t.Errorf("pre-allocated area = %v, want ~800", got)
	}
}

func TestReschedulingCoalescing(t *testing.T) {
	// Many requests in one instant trigger at most one scheduling round per
	// re-scheduling interval (§3.2).
	e, s := newTestServer(100)
	app := &testApp{}
	app.sess = connect(s, app)
	e.Run(0.5)
	for i := 0; i < 20; i++ {
		_, _ = submit(app.sess, RequestSpec{Cluster: c0, N: 1, Duration: 1000, Type: request.NonPreempt})
	}
	// All 20 become visible after a single coalesced round at t=1.
	e.Run(1.5)
	if len(app.starts) != 20 {
		t.Fatalf("starts = %d, want 20", len(app.starts))
	}
	for _, st := range app.starts {
		_ = st
	}
	if e.Now() > 2 {
		t.Errorf("coalesced round should happen by t=1, now=%v", e.Now())
	}
}

func TestStrictPolicyWiredThrough(t *testing.T) {
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 10},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Policy:          core.StrictEquiPartition,
	})
	a := &testApp{}
	a.sess = connect(s, a)
	_, _ = submit(a.sess, RequestSpec{Cluster: c0, N: 10, Duration: math.Inf(1), Type: request.Preempt})
	b := &testApp{}
	b.sess = connect(s, b)
	_, _ = submit(b.sess, RequestSpec{Cluster: c0, N: 10, Duration: math.Inf(1), Type: request.Preempt})
	e.Run(3)
	_, pv := a.lastViews(t)
	if got := pv.Get(c0).Value(s.Now()); got != 5 {
		t.Errorf("strict view = %d, want 5 (two active apps)", got)
	}
}

func TestClipWiredThrough(t *testing.T) {
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 10},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Clip:            view.Constant(3, c0),
	})
	a := &testApp{}
	a.sess = connect(s, a)
	e.Run(2)
	np, _ := a.lastViews(t)
	if got := np.Get(c0).Value(0); got != 3 {
		t.Errorf("clipped non-preemptive view = %d, want 3", got)
	}
}

// frozenClock stands still and never fires a timer: rounds run only through
// ScheduleNow, at whatever instant the test set.
type frozenClock struct{ now float64 }

func (c *frozenClock) Now() float64 { return c.now }
func (c *frozenClock) AfterFunc(float64, string, func()) clock.Timer {
	return frozenTimer{}
}

type frozenTimer struct{}

func (frozenTimer) Stop() bool { return true }

// TestNotificationOrderIsConnectionOrder pins whose order a round notifies
// in: the scheduler's, connection order (§3.2), not ascending ID. The two
// agree for every ID the server or a federation draws; a caller-chosen ID
// below an earlier one is where they part. SessionIDs stays ascending.
func TestNotificationOrderIsConnectionOrder(t *testing.T) {
	clk := &frozenClock{}
	s := NewServer(Config{Clusters: map[view.ClusterID]int{c0: 4}, ReschedInterval: 1, Clock: clk})
	var order []int
	for _, id := range []int{5, 3} {
		app := &testApp{onViews: func(view.View, view.View) { order = append(order, id) }}
		if _, err := s.ConnectID(app, id); err != nil {
			t.Fatal(err)
		}
		clk.now++
	}
	s.ScheduleNow()
	if !slices.Equal(order, []int{5, 3}) {
		t.Errorf("first round notified %v, want [5 3] (connection order)", order)
	}
	if got := s.SessionIDs(); !slices.Equal(got, []int{3, 5}) {
		t.Errorf("SessionIDs = %v, want [3 5]", got)
	}
	mustCheck(t, s)
}

// TestRelationChildRefusesFloor: a NotBefore floor on a NEXT or COALLOC
// child is refused, by SetNotBefore and by HoldID alike, because the
// scheduler places a relation child by its parent and would ignore it. A
// floor of 0 on a related hold is no floor and is admitted.
func TestRelationChildRefusesFloor(t *testing.T) {
	_, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	parent, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[request.ID]RequestSpec{}
	for _, how := range []request.Relation{request.Next, request.Coalloc} {
		spec := RequestSpec{Cluster: c0, N: 2, Duration: 50, Type: request.Preempt, RelatedHow: how, RelatedTo: parent}
		child, err := submit(app.sess, spec)
		if err != nil {
			t.Fatal(err)
		}
		specs[child] = spec
	}
	hold := request.ID(100)
	for child, spec := range specs {
		how := spec.RelatedHow
		var re *RequestError
		if err := app.sess.SetNotBefore(child, 30); !errors.As(err, &re) || re.ID != child || re.Reason != reasonRelatedFloor {
			t.Errorf("%v child: SetNotBefore = %v, want a RequestError{%d, %q}", how, err, child, reasonRelatedFloor)
		}
		if err := app.sess.HoldID(spec, hold, 30, nil); !errors.As(err, &re) || re.ID != hold || re.Reason != reasonRelatedFloor {
			t.Errorf("%v hold floored at 30 = %v, want a RequestError{%d, %q}", how, err, hold, reasonRelatedFloor)
		}
		if err := app.sess.HoldID(spec, hold+1, 0, nil); err != nil {
			t.Errorf("%v hold without a floor: %v", how, err)
		}
		hold += 2
	}
	mustCheck(t, s)
}

// TestSetNotBeforeFloorsFreePreemptible: SetNotBefore accepts any unstarted
// FREE request, a preemptible one included. Such a request is shrunk rather
// than delayed, but its floor still holds its start back.
func TestSetNotBeforeFloorsFreePreemptible(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	startedAt := -1.0
	app.onStart = func(request.ID, []int) { startedAt = e.Now() }
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.Preempt})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.sess.SetNotBefore(id, 30); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(app.starts) != 1 || app.starts[0].id != id || len(app.starts[0].ids) != 4 {
		t.Fatalf("starts = %v, want request %d on 4 nodes", app.starts, id)
	}
	if startedAt != 30 {
		t.Errorf("started at t=%v, want the floor t=30", startedAt)
	}
}
