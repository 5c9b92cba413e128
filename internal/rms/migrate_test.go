package rms

import (
	"errors"
	"maps"
	"math"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

const (
	mcX = view.ClusterID("mx")
	mcY = view.ClusterID("my")
	mcZ = view.ClusterID("mz")
)

// newMigratePair builds two servers on one simulated clock: donor a with
// clusters {mx, my}, target b with {mz}, both with recorders.
func newMigratePair(t *testing.T) (*sim.Engine, *Server, *Server, *metrics.Recorder, *metrics.Recorder) {
	t.Helper()
	e := sim.NewEngine()
	clk := clock.SimClock{E: e}
	recA, recB := metrics.NewRecorder(), metrics.NewRecorder()
	a := NewServer(Config{
		Clusters:        map[view.ClusterID]int{mcX: 4, mcY: 4},
		ReschedInterval: 1,
		Clock:           clk,
		Metrics:         recA,
	})
	b := NewServer(Config{
		Clusters:        map[view.ClusterID]int{mcZ: 4},
		ReschedInterval: 1,
		Clock:           clk,
		Metrics:         recB,
	})
	return e, a, b, recA, recB
}

func TestDetachAttachRoundTrip(t *testing.T) {
	e, a, b, recA, recB := newMigratePair(t)
	appA, appB := &testApp{}, &testApp{}
	sa, err := a.ConnectID(appA, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectID(appB, 7); err != nil {
		t.Fatal(err)
	}
	// A started allocation, a pending NEXT child, and a preemptible request,
	// all on mx; one bystander request on my that must stay behind.
	np, err := submit(sa, RequestSpec{Cluster: mcX, N: 3, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(sa, RequestSpec{Cluster: mcX, N: 2, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: np}); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(sa, RequestSpec{Cluster: mcX, N: 1, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	stay, err := submit(sa, RequestSpec{Cluster: mcY, N: 2, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(appA.starts) < 2 {
		t.Fatalf("starts on donor = %v, want the mx and my allocations running", appA.starts)
	}
	heldBefore := recA.Current(7)

	snap, err := a.DetachCluster(mcX)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster != mcX || snap.Nodes != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap.Requests(); got != 3 {
		t.Fatalf("snapshot carries %d requests, want 3", got)
	}
	// Held IDs move with the snapshot: the running ¬P (3) + preemptible (1).
	if got := snap.HeldNodes(); got != 4 {
		t.Fatalf("snapshot holds %d node IDs, want 4", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("donor invariants after detach: %v", err)
	}
	// The donor's recorder dropped exactly the migrated occupancy.
	if got := recA.Current(7); got != heldBefore-4 {
		t.Fatalf("donor current = %d, want %d", got, heldBefore-4)
	}

	var moved []request.ID
	if err := b.AttachCluster(snap, func(appID int, id request.ID) {
		if appID != 7 {
			t.Errorf("observe appID = %d, want 7", appID)
		}
		moved = append(moved, id)
	}); err != nil {
		t.Fatal(err)
	}
	// The requests keep their IDs (set order: the parent, its NEXT child, the
	// preemptible one).
	if len(moved) != 3 || moved[0] != np || moved[1] != np+1 {
		t.Fatalf("observe saw %v, want 3 requests starting with %d, %d", moved, np, np+1)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("target invariants after attach: %v", err)
	}
	if got := recB.Current(7); got != 4 {
		t.Fatalf("target current = %d, want 4", got)
	}
	if got := b.Stats()["migrated_requests"]; got != 3 {
		t.Fatalf("migrated_requests counter = %d, want 3", got)
	}

	// The bystander request is untouched and the donor no longer knows mx.
	if err := sa.Done(stay, nil); err != nil {
		t.Fatalf("bystander done: %v", err)
	}
	if _, err := submit(sa, RequestSpec{Cluster: mcX, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Fatal("donor accepted a request for the detached cluster")
	}

	// On the target, the migrated allocation keeps running: finishing the
	// parent hands its node IDs to the NEXT child, under the same IDs.
	sb := b.sessions[7]
	if sb == nil {
		t.Fatal("no session 7 on target")
	}
	if err := sb.Done(np, nil); err != nil {
		t.Fatalf("done on migrated request: %v", err)
	}
	e.Run(e.Now() + 3)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("target invariants after done: %v", err)
	}
	// The NEXT child started on the target with inherited node IDs.
	found := false
	for _, st := range appB.starts {
		if st.id == moved[1] && len(st.ids) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("NEXT child never started on target; starts = %v", appB.starts)
	}

	// Cluster loads and churn moved: the target's mx row carries the donor's
	// cumulative churn counter.
	for _, l := range b.ClusterLoads() {
		if l.Cluster == mcX && l.Churn != 3 {
			t.Fatalf("migrated churn = %d, want 3", l.Churn)
		}
	}
}

func TestDetachClusterEntangledAndLast(t *testing.T) {
	e, a, b, _, _ := newMigratePair(t)
	sa, err := a.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	px, err := submit(sa, RequestSpec{Cluster: mcX, N: 1, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	// Live cross-cluster NEXT: the parent runs on mx, the child waits on my.
	child, err := submit(sa, RequestSpec{Cluster: mcY, N: 1, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: px})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	// The live edge does not block the detach: it leaves as a NotBefore pin at
	// the parent's end, cut on both sides.
	parent, err := sa.ScheduleInfo(px)
	if err != nil || !parent.Started {
		t.Fatalf("parent = %+v, %v; want it running", parent, err)
	}
	snap, err := a.DetachCluster(mcY)
	if err != nil {
		t.Fatalf("detach entangled (child side) = %v, want the edge severed", err)
	}
	rs := snap.Apps[0].Requests[0]
	if rs.ID != child || rs.RelatedHow != request.Free || rs.NotBefore != parent.ScheduledAt+parent.Duration {
		t.Fatalf("severed child = %+v, want request %d unrelated and pinned at %g", rs, child, parent.ScheduledAt+parent.Duration)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("invariants after severing detach: %v", err)
	}

	// A server whose session already uses the child's ID refuses the snapshot
	// whole; the donor takes it back under the same IDs.
	sb, err := b.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // b draws IDs 1 and 2 itself
		if _, err := submit(sb, RequestSpec{Cluster: mcZ, N: 1, Duration: 1e6, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	var re *RequestError
	if err := b.AttachCluster(snap, nil); !errors.As(err, &re) || re.ID != child || re.Reason != ReasonInUse {
		t.Fatalf("attach over a used ID = %v, want RequestError{%d, in use}", err, child)
	}
	if _, ok := b.Clusters()[mcY]; ok {
		t.Fatal("refused attach left the cluster on the target")
	}
	if got := sb.RequestIDs(); len(got) != 2 {
		t.Fatalf("refused attach changed the target's requests: %v", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("target invariants after refused attach: %v", err)
	}
	if err := a.AttachCluster(snap, nil); err != nil {
		t.Fatalf("re-attach to donor: %v", err)
	}
	if got := sa.RequestIDs(); len(got) != 2 || got[0] != px || got[1] != child {
		t.Fatalf("donor requests after re-attach = %v, want [%d %d]", got, px, child)
	}

	// Once both sides finish, the cluster detaches with nothing related left.
	for _, id := range []request.ID{px, child} {
		if err := sa.Done(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err = a.DetachCluster(mcX)
	if err != nil {
		t.Fatalf("detach after finish: %v", err)
	}
	for _, as := range snap.Apps {
		for _, rs := range as.Requests {
			if rs.RelatedHow != request.Free {
				t.Fatalf("dead relation not severed in snapshot: %+v", rs)
			}
		}
	}
	if _, err := a.DetachCluster(mcY); !errors.Is(err, ErrLastCluster) {
		t.Fatalf("detach last = %v, want ErrLastCluster", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachClusterStoppedAndUnknown(t *testing.T) {
	_, a, _, _, _ := newMigratePair(t)
	if _, err := a.DetachCluster("nope"); err == nil {
		t.Fatal("detached an unknown cluster")
	}
	a.Stop()
	if _, err := a.DetachCluster(mcX); !errors.Is(err, ErrStopped) {
		t.Fatalf("detach on stopped = %v, want ErrStopped", err)
	}
}

// TestAttachClusterGuards: AttachCluster refuses a cluster the server
// already has before the scheduler sees it, and a cluster migrated with
// every node down attaches at capacity zero — core.Scheduler.AddCluster
// panics on a duplicate or a negative capacity, and AttachCluster is its
// only caller.
func TestAttachClusterGuards(t *testing.T) {
	_, a, b, _, _ := newMigratePair(t)
	if _, err := a.FailNodes(mcX, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap, err := a.DetachCluster(mcX)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachCluster(&ClusterSnapshot{Cluster: mcZ, Nodes: 4}, nil); err == nil {
		t.Fatal("attached a cluster the server already has")
	}
	if err := b.AttachCluster(snap, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.Scheduler().Capacity(mcX); got != 0 {
		t.Fatalf("a cluster migrated with every node down attached at capacity %d, want 0", got)
	}
	mustCheck(t, b)
}

// TestMigrationLeavesConfigClustersAlone: a server's cluster set is its
// pools, so moving a cluster between two servers leaves the maps their
// callers configured them with as they were.
func TestMigrationLeavesConfigClustersAlone(t *testing.T) {
	clk := clock.SimClock{E: sim.NewEngine()}
	cfgA := map[view.ClusterID]int{mcX: 4, mcY: 4}
	cfgB := map[view.ClusterID]int{mcZ: 4}
	a := NewServer(Config{Clusters: cfgA, ReschedInterval: 1, Clock: clk})
	b := NewServer(Config{Clusters: cfgB, ReschedInterval: 1, Clock: clk})
	snap, err := a.DetachCluster(mcY)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachCluster(snap, nil); err != nil {
		t.Fatal(err)
	}
	if want := map[view.ClusterID]int{mcX: 4, mcY: 4}; !maps.Equal(cfgA, want) {
		t.Errorf("donor's configured clusters = %v, want %v", cfgA, want)
	}
	if want := map[view.ClusterID]int{mcZ: 4}; !maps.Equal(cfgB, want) {
		t.Errorf("target's configured clusters = %v, want %v", cfgB, want)
	}
	if got, want := b.Clusters(), map[view.ClusterID]int{mcY: 4, mcZ: 4}; !maps.Equal(got, want) {
		t.Errorf("target's clusters = %v, want %v", got, want)
	}
}

// TestDetachCutsDeadRelations: a finished child keeps its relation until it
// is reaped, so a detach can find a dead edge crossing the boundary from
// either side. Whichever record leaves, neither the snapshot nor the donor
// keeps a pointer across.
func TestDetachCutsDeadRelations(t *testing.T) {
	for _, leaving := range []view.ClusterID{mcX, mcY} {
		e, a, _, _, _ := newMigratePair(t)
		sa, err := a.ConnectID(&testApp{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := submit(sa, RequestSpec{Cluster: mcX, N: 1, Duration: 1e6, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		child, err := submit(sa, RequestSpec{Cluster: mcY, N: 1, Duration: 1e6, Type: request.NonPreempt,
			RelatedHow: request.Coalloc, RelatedTo: parent})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(3)
		if err := sa.Done(child, nil); err != nil {
			t.Fatal(err)
		}
		// No round in between: the finished child is not reaped yet.
		snap, err := a.DetachCluster(leaving)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append(snap.Apps[0].Requests, sa.app.Requests()...) {
			if r.RelatedTo != nil || r.RelatedHow != request.Free {
				t.Errorf("detach of %s: request %d still relates to %v", leaving, r.ID, r.RelatedTo)
			}
		}
		mustCheck(t, a)
	}
}

// TestAttachStampsFreshSeq: an attached record takes the next admission
// sequence of its new server, so its start-order tie-break never collides
// with a request the target admitted itself.
func TestAttachStampsFreshSeq(t *testing.T) {
	_, a, b, _, _ := newMigratePair(t)
	sa, err := a.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.RequestID(RequestSpec{Cluster: mcX, N: 1, Duration: 10, Type: request.NonPreempt}, 100, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // b draws sequences 1 and 2 itself
		if _, err := submit(sb, RequestSpec{Cluster: mcZ, N: 1, Duration: 10, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.DetachCluster(mcX)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachCluster(snap, nil); err != nil {
		t.Fatal(err)
	}
	if got := sb.findRequestLocked(100).Seq; got != 3 {
		t.Fatalf("attached request 100 has Seq %d, want b's next, 3", got)
	}
}

// TestReapFreesParkedIDsInMetrics: node IDs parked on a finished parent for
// a NEXT child that was then withdrawn go back to the pool when the parent
// is reaped, and the recorder's allocation drops with them.
func TestReapFreesParkedIDsInMetrics(t *testing.T) {
	e, a, _, recA, _ := newMigratePair(t)
	sa, err := a.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := submit(sa, RequestSpec{Cluster: mcX, N: 2, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := submit(sa, RequestSpec{Cluster: mcX, N: 2, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if err := sa.Done(parent, nil); err != nil { // IDs parked for the child
		t.Fatal(err)
	}
	if err := sa.Done(child, nil); err != nil { // withdrawn before its start
		t.Fatal(err)
	}
	if got := recA.Current(1); got != 2 {
		t.Fatalf("recorder holds %d before the reap, want the 2 parked IDs", got)
	}
	e.Run(e.Now() + 2)
	if got := recA.Current(1); got != 0 {
		t.Fatalf("recorder holds %d after the reap, want 0", got)
	}
	mustCheck(t, a)
}
