package rms

import (
	"errors"
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
	np, err := sa.Request(RequestSpec{Cluster: mcX, N: 3, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Request(RequestSpec{Cluster: mcX, N: 2, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: np}); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Request(RequestSpec{Cluster: mcX, N: 1, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	stay, err := sa.Request(RequestSpec{Cluster: mcY, N: 2, Duration: 1e6, Type: request.NonPreempt})
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

	var remaps [][2]request.ID
	if err := b.AttachCluster(snap, func(appID int, oldID, newID request.ID) {
		if appID != 7 {
			t.Errorf("observe appID = %d, want 7", appID)
		}
		remaps = append(remaps, [2]request.ID{oldID, newID})
	}); err != nil {
		t.Fatal(err)
	}
	if len(remaps) != 3 {
		t.Fatalf("observe saw %d requests, want 3", len(remaps))
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
	if _, err := sa.Request(RequestSpec{Cluster: mcX, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Fatal("donor accepted a request for the detached cluster")
	}

	// On the target, the migrated allocation keeps running: finishing the
	// parent hands its node IDs to the NEXT child at the new local IDs.
	sb := b.sessions[7]
	if sb == nil {
		t.Fatal("no session 7 on target")
	}
	newNP := remaps[0][1]
	if err := sb.Done(newNP, nil); err != nil {
		t.Fatalf("done on migrated request: %v", err)
	}
	e.Run(e.Now() + 3)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("target invariants after done: %v", err)
	}
	// The NEXT child started on the target with inherited node IDs.
	found := false
	for _, st := range appB.starts {
		if st.id == remaps[1][1] && len(st.ids) == 2 {
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
	e, a, _, _, _ := newMigratePair(t)
	sa, err := a.ConnectID(&testApp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	px, err := sa.Request(RequestSpec{Cluster: mcX, N: 1, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	// Live cross-cluster COALLOC: mx ↔ my are entangled in both directions.
	if _, err := sa.Request(RequestSpec{Cluster: mcY, N: 1, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: px}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if _, err := a.DetachCluster(mcX); !errors.Is(err, ErrEntangled) {
		t.Fatalf("detach entangled = %v, want ErrEntangled", err)
	}
	if _, err := a.DetachCluster(mcY); !errors.Is(err, ErrEntangled) {
		t.Fatalf("detach entangled (child side) = %v, want ErrEntangled", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("invariants after refused detach: %v", err)
	}

	// Once both sides finish, the relation is dead and the cluster detaches;
	// severing drops the dead edge from the surviving state.
	for _, r := range a.sessions[1].app.Requests() {
		if err := sa.Done(r.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.DetachCluster(mcX)
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
