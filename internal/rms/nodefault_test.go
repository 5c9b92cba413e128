package rms

import (
	"math"
	"slices"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// nodeApp is a testApp that also observes finishes, reaps and node failures.
type nodeApp struct {
	testApp
	finished []request.ID
	reaped   []request.ID
	failures []NodeFailure
}

func (a *nodeApp) OnRequestFinished(id request.ID)   { a.finished = append(a.finished, id) }
func (a *nodeApp) OnRequestsReaped(ids []request.ID) { a.reaped = append(a.reaped, ids...) }
func (a *nodeApp) OnNodeFailure(ev NodeFailure)      { a.failures = append(a.failures, ev) }

func newNodeFaultServer(t *testing.T, nodes int, pol NodeRecoveryPolicy) (*sim.Engine, *Server) {
	t.Helper()
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: nodes},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		NodeRecovery:    pol,
	})
	return e, s
}

func mustCheck(t *testing.T, s *Server) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestFailFreeNodeShrinksCapacity(t *testing.T) {
	e, s := newNodeFaultServer(t, 10, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	e.RunAll()

	rep, err := s.FailNodes(c0, []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capacity != 8 || rep.Killed != 0 || rep.Requeued != 0 || rep.Reduced != 0 {
		t.Fatalf("report = %+v, want capacity 8 and no affected requests", rep)
	}
	mustCheck(t, s)
	e.RunAll()
	// The next rounds plan against 8 nodes: a full-width request fills the
	// degraded cluster exactly and never touches a dead ID.
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 8, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(app.starts) != 1 || app.starts[0].id != id {
		t.Fatalf("starts = %v, want the 8-wide request started", app.starts)
	}
	for _, nid := range app.starts[0].ids {
		if nid == 3 || nid == 7 {
			t.Fatalf("allocation %v includes a dead node", app.starts[0].ids)
		}
	}
	mustCheck(t, s)
}

func TestFailNodesKillPolicy(t *testing.T) {
	e, s := newNodeFaultServer(t, 10, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 1000, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatal("request did not start")
	}
	victim := app.starts[0].ids[0]

	rep, err := s.FailNodes(c0, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed != 1 || rep.Capacity != 9 {
		t.Fatalf("report = %+v, want 1 killed, capacity 9", rep)
	}
	mustCheck(t, s)
	// Kill is a reap without a preceding finish: the lost-work signal.
	if len(app.finished) != 0 {
		t.Errorf("finished = %v, want none (killed, not completed)", app.finished)
	}
	if len(app.reaped) != 1 || app.reaped[0] != id {
		t.Errorf("reaped = %v, want [%d]", app.reaped, id)
	}
	if len(app.failures) != 1 || app.failures[0].Action != NodeFaultKilled {
		t.Fatalf("failures = %+v, want one killed event", app.failures)
	}
	if got := app.failures[0].LostIDs; len(got) != 1 || got[0] != victim {
		t.Errorf("LostIDs = %v, want [%d]", got, victim)
	}
	// The three survivors went back to the pool: 10 − 1 failed − 0 held.
	if got := s.pools[c0].available(); got != 9 {
		t.Errorf("available = %d, want 9", got)
	}
	e.RunAll()
	mustCheck(t, s)
}

func TestFailNodesRequeuePolicy(t *testing.T) {
	e, s := newNodeFaultServer(t, 4, RequeueOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 50, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatal("request did not start")
	}
	victim := app.starts[0].ids[0]

	rep, err := s.FailNodes(c0, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued != 1 || rep.Capacity != 3 {
		t.Fatalf("report = %+v, want 1 requeued, capacity 3", rep)
	}
	mustCheck(t, s)
	if len(app.failures) != 1 || app.failures[0].Action != NodeFaultRequeued {
		t.Fatalf("failures = %+v, want one requeued event", app.failures)
	}
	e.RunAll()
	// The re-run got a fresh 2-node allocation on the 3 surviving nodes and
	// ran to completion.
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v, want a re-start after the requeue", app.starts)
	}
	if app.starts[1].id != id {
		t.Errorf("re-start id = %d, want %d (same request)", app.starts[1].id, id)
	}
	for _, nid := range app.starts[1].ids {
		if nid == victim {
			t.Fatalf("re-run allocation %v includes the dead node", app.starts[1].ids)
		}
	}
	if len(app.finished) != 1 || app.finished[0] != id {
		t.Errorf("finished = %v, want [%d]", app.finished, id)
	}
	mustCheck(t, s)
}

func TestFailNodesCooperativeReducesForHandlers(t *testing.T) {
	e, s := newNodeFaultServer(t, 10, CooperativeOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 1000, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	victim := app.starts[0].ids[1]

	rep, err := s.FailNodes(c0, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reduced != 1 {
		t.Fatalf("report = %+v, want 1 reduced", rep)
	}
	mustCheck(t, s)
	if len(app.failures) != 1 {
		t.Fatal("no node-failure notification")
	}
	ev := app.failures[0]
	if ev.Action != NodeFaultReduced {
		t.Fatalf("action = %v, want reduced", ev.Action)
	}
	if len(ev.Remaining) != 3 {
		t.Errorf("remaining = %v, want the 3 survivors", ev.Remaining)
	}
	for _, nid := range ev.Remaining {
		if nid == victim {
			t.Errorf("remaining %v includes the dead node", ev.Remaining)
		}
	}
	e.RunAll()
	mustCheck(t, s)
}

func TestFailNodesCooperativeFallsBackToRequeue(t *testing.T) {
	// testApp does not implement NodeFailureHandler: nobody would ever act
	// on a reduced allocation, so the server requeues instead.
	e, s := newNodeFaultServer(t, 4, CooperativeOnNodeFailure)
	app := &testApp{}
	app.sess = connect(s, app)
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 30, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	victim := app.starts[0].ids[0]
	rep, err := s.FailNodes(c0, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued != 1 || rep.Reduced != 0 {
		t.Fatalf("report = %+v, want the non-cooperating app requeued", rep)
	}
	mustCheck(t, s)
	e.RunAll()
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v, want a re-start", app.starts)
	}
	mustCheck(t, s)
}

func TestFailNodesPreemptAlwaysReduced(t *testing.T) {
	// Revocation is within the preemptible contract: even under the kill
	// policy a preemptible allocation is reduced, never killed.
	e, s := newNodeFaultServer(t, 10, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatal("preemptible request did not start")
	}
	victim := app.starts[0].ids[0]
	rep, err := s.FailNodes(c0, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reduced != 1 || rep.Killed != 0 {
		t.Fatalf("report = %+v, want the preemptible request reduced", rep)
	}
	if len(app.failures) != 1 || app.failures[0].Action != NodeFaultReduced {
		t.Fatalf("failures = %+v, want one reduced event", app.failures)
	}
	e.RunAll()
	mustCheck(t, s)
}

func TestRecoverNodesRestoresCapacity(t *testing.T) {
	e, s := newNodeFaultServer(t, 4, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	e.RunAll()
	if _, err := s.FailNodes(c0, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, s)
	if got := s.FailedNodeIDs(c0); len(got) != 3 {
		t.Fatalf("failed IDs = %v, want 3", got)
	}
	rep, err := s.RecoverNodes(c0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capacity != 3 {
		t.Fatalf("capacity = %d, want 3", rep.Capacity)
	}
	mustCheck(t, s)
	if got := s.FailedNodeIDs(c0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("failed IDs = %v, want [0]", got)
	}
	// The recovered capacity is schedulable again.
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 3, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(app.starts) != 1 || app.starts[0].id != id {
		t.Fatalf("starts = %v, want the 3-wide request started", app.starts)
	}
	mustCheck(t, s)
}

func TestFailNodesValidation(t *testing.T) {
	e, s := newNodeFaultServer(t, 4, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	e.RunAll()

	if _, err := s.FailNodes(c0, []int{4}); err == nil {
		t.Error("out-of-range node should error")
	}
	if _, err := s.FailNodes(c0, []int{1, 1}); err == nil {
		t.Error("duplicate node should error")
	}
	if _, err := s.FailNodes("nope", []int{0}); err == nil {
		t.Error("unknown cluster should error")
	}
	if _, err := s.RecoverNodes(c0, []int{0}); err == nil {
		t.Error("recovering an up node should error")
	}
	// Failed validation must leave the server untouched.
	if got := s.pools[c0].capacity(); got != 4 {
		t.Errorf("capacity after rejected calls = %d, want 4", got)
	}
	if _, err := s.FailNodes(c0, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailNodes(c0, []int{2}); err == nil {
		t.Error("failing a down node should error")
	}
	// The scheduler's capacity is the pool's working nodes: it reaches zero
	// and no call takes it below (core.Scheduler.SetCapacity panics on a
	// negative or unknown cluster; these are its only callers).
	if _, err := s.FailNodes(c0, []int{0, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailNodes(c0, []int{0}); err == nil {
		t.Error("failing a node of a cluster with none up should error")
	}
	if got := s.Scheduler().Capacity(c0); got != 0 {
		t.Errorf("scheduler capacity with every node down = %d, want 0", got)
	}
	if _, err := s.RecoverNodes("nope", []int{0}); err == nil {
		t.Error("recovering on an unknown cluster should error")
	}
	mustCheck(t, s)
}

func TestFailNodesNextHandOverSurvivorsStayParked(t *testing.T) {
	// A NEXT update parks the finished parent's IDs for the child. Nodes
	// dying in the parked window are stripped silently: the child inherits
	// the survivors and tops up from the pool.
	e, s := newNodeFaultServer(t, 10, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	cur, err := submit(app.sess, RequestSpec{Cluster: c0, N: 6, Duration: 1000, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatal("initial request did not start")
	}
	held := append([]int(nil), app.starts[0].ids...)
	// Shrink 6 → 4 via NEXT + done, releasing two IDs; the four kept IDs
	// park on the finished parent until the child starts.
	next, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 1000, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: cur})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.sess.Done(cur, held[4:]); err != nil {
		t.Fatal(err)
	}
	// Before the child starts, kill one of the parked IDs.
	if _, err := s.FailNodes(c0, []int{held[0]}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, s)
	e.RunAll()
	var childStart []int
	for _, st := range app.starts {
		if st.id == next {
			childStart = st.ids
		}
	}
	if len(childStart) != 4 {
		t.Fatalf("child allocation = %v, want 4 IDs", childStart)
	}
	for _, nid := range childStart {
		if nid == held[0] {
			t.Fatalf("child allocation %v includes the dead node", childStart)
		}
	}
	mustCheck(t, s)
}

// TestFailedNodesSurviveReset pins the pools as the one record of dead
// machines across a crash. A stopped server takes node faults: it refuses
// what a running one refuses, records the rest, and arms nothing. Reset
// rejoins with those machines down and the scheduler planning against the
// working ones.
func TestFailedNodesSurviveReset(t *testing.T) {
	e, s := newNodeFaultServer(t, 8, KillOnNodeFailure)
	app := &nodeApp{}
	app.sess = connect(s, app)
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	if _, err := s.FailNodes(c0, []int{1}); err != nil {
		t.Fatal(err)
	}
	s.Stop()

	pending := e.Pending()
	for _, ids := range [][]int{{8}, {-1}, {1}, {2, 2}} {
		if _, err := s.FailNodes(c0, ids); err == nil {
			t.Errorf("stopped FailNodes(%v) accepted; a running server refuses it", ids)
		}
	}
	for _, ids := range [][]int{{0}, {1, 1}} {
		if _, err := s.RecoverNodes(c0, ids); err == nil {
			t.Errorf("stopped RecoverNodes(%v) accepted; a running server refuses it", ids)
		}
	}
	rep, err := s.FailNodes(c0, []int{6, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Failed, []int{2, 5, 6}) || rep.Capacity != 4 || rep.Killed != 0 {
		t.Errorf("stopped FailNodes report = %+v, want [2 5 6] down, capacity 4, nothing affected", rep)
	}
	if _, err := s.RecoverNodes(c0, []int{6}); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != pending {
		t.Errorf("node faults on a stopped server left %d pending events, want %d", got, pending)
	}
	if got := s.FailedNodeIDs(c0); !slices.Equal(got, []int{1, 2, 5}) {
		t.Errorf("stopped server's failed IDs = %v, want [1 2 5]", got)
	}
	if got := s.Stats()["failed_nodes"]; got != 4 {
		t.Errorf("failed_nodes = %d, want 4 (each failure counted once)", got)
	}

	s.Reset()
	if got := s.FailedNodeIDs(c0); !slices.Equal(got, []int{1, 2, 5}) {
		t.Errorf("failed IDs after Reset = %v, want [1 2 5]", got)
	}
	if got := s.Scheduler().Capacity(c0); got != 5 {
		t.Errorf("scheduler capacity after Reset = %d, want 8 − 3 = 5", got)
	}
	mustCheck(t, s)
	// The rejoined cluster fills its working nodes and none of the dead ones.
	app2 := &nodeApp{}
	if app2.sess, err = s.ConnectID(app2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(app2.sess, RequestSpec{Cluster: c0, N: 5, Duration: 10, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 2)
	if len(app2.starts) != 1 || !slices.Equal(app2.starts[0].ids, []int{0, 3, 4, 6, 7}) {
		t.Fatalf("starts after Reset = %v, want one on [0 3 4 6 7]", app2.starts)
	}
	mustCheck(t, s)
}
