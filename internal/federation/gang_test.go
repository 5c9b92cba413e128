package federation

import (
	"math"
	"reflect"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// startRec is one observed start: when, which federated request, which node
// IDs. The single-shard differential compares these byte-for-byte between a
// 1-shard federation and a bare RMS.
type startRec struct {
	at  float64
	id  request.ID
	ids []int
}

// driveRelatedWorkload runs the scripted related workload (NEXT and COALLOC
// legs across two clusters) against any Request/Done surface and returns
// the recorded starts. Both the bare server and the 1-shard federation
// expose the same rms.RequestSpec API, so the script is shared.
func driveRelatedWorkload(t *testing.T, e *sim.Engine, app *testApp, req func(rms.RequestSpec) (request.ID, error), done func(request.ID, []int) error) []startRec {
	t.Helper()
	var recs []startRec
	app.onStart = func(id request.ID, ids []int) {
		recs = append(recs, startRec{at: e.Now(), id: id, ids: append([]int(nil), ids...)})
	}
	r1, err := req(rms.RequestSpec{Cluster: cA, N: 3, Duration: 10, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := req(rms.RequestSpec{Cluster: cB, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	// Cross-cluster NEXT (same shard at Shards == 1: an ordinary relation).
	if _, err := req(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: r1}); err != nil {
		t.Fatal(err)
	}
	// Cross-cluster COALLOC anchored to the pending NEXT child.
	if _, err := req(rms.RequestSpec{Cluster: cA, N: 1, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: r1}); err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	if err := done(r2, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(40)
	_ = r2
	return recs
}

// TestSingleShardGangDifferential is the shards=1 differential with
// relations in play: a 1-shard federation must behave byte-identically to a
// bare rms.Server on the same related workload — same request IDs, same
// start times, same node IDs — and its gang coordinator must stay cold
// (every relation is shard-local, so no reservation is ever placed).
func TestSingleShardGangDifferential(t *testing.T) {
	// Bare server.
	be := sim.NewEngine()
	bare := rms.NewServer(rms.Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8, cC: 8},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: be},
	})
	bapp := &testApp{}
	bsess, err := bare.ConnectID(bapp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The federation draws request IDs from 1, one per request() call.
	var last request.ID
	submit := func(spec rms.RequestSpec) (request.ID, error) {
		last++
		return last, bsess.RequestID(spec, last, nil)
	}
	bareRecs := driveRelatedWorkload(t, be, bapp, submit, bsess.Done)

	// 1-shard federation over the identical cluster set.
	fe := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8, cC: 8},
		Shards:          1,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: fe},
	})
	fapp := &testApp{}
	fsess := f.Connect(fapp)
	fedRecs := driveRelatedWorkload(t, fe, fapp, fsess.Request, fsess.Done)

	if len(bareRecs) != 4 {
		t.Fatalf("bare server recorded %d starts, want 4: %+v", len(bareRecs), bareRecs)
	}
	if !reflect.DeepEqual(bareRecs, fedRecs) {
		t.Fatalf("1-shard federation diverged from bare RMS:\nbare: %+v\nfed:  %+v", bareRecs, fedRecs)
	}
	for _, c := range []string{"gang_committed", "gang_aborted", "gang_retried"} {
		if n := f.Stats()[c]; n != 0 {
			t.Errorf("1-shard federation moved gang counter %v to %d", c, n)
		}
	}
	mustCheck(t, f)
}

// TestGangCoallocCommits pins the COALLOC flavour of the two-phase path:
// both legs start, the commit counter moves, and invariants hold after the
// gang has fully drained.
func TestGangCoallocCommits(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 10, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 10, Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: parent})
	if err != nil {
		t.Fatalf("cross-shard COALLOC = %v, want reservation acceptance", err)
	}
	e.Run(30)
	started := map[request.ID]bool{}
	app.mu.Lock()
	for _, st := range app.starts {
		started[st.id] = true
	}
	app.mu.Unlock()
	if !started[parent] || !started[child] {
		t.Fatalf("gang legs started = %v, want both %d and %d", started, parent, child)
	}
	if n := f.Stats()["gang_committed"]; n != 1 {
		t.Errorf("gang-committed counter = %d, want 1", n)
	}
	if n := f.Stats()["gang_aborted"]; n != 0 {
		t.Errorf("gang-aborted counter = %d, want 0", n)
	}
	mustCheck(t, f)
}

// TestGangAbortsWhenChildCannotFit drives the abort path: the child leg's
// cluster is fully pinned by an infinite allocation, so alignment always
// sees an unschedulable leg. The coordinator must retry with backoff, then
// abort deterministically — releasing the hold (no leak) and dropping only
// the child while the parent runs to completion.
func TestGangAbortsWhenChildCannotFit(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	squatter := &testApp{}
	ssess := f.Connect(squatter)
	if _, err := ssess.Request(rms.RequestSpec{Cluster: cB, N: 8, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(2)

	app := &testApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 200, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(120) // past the full backoff budget (1+2+4+8 s of retries)
	if n := f.Stats()["gang_aborted"]; n != 1 {
		t.Fatalf("gang-aborted counter = %d, want 1", n)
	}
	if n := f.Stats()["gang_retried"]; n == 0 {
		t.Error("gang-retried counter = 0, want backoff retries before the abort")
	}
	app.mu.Lock()
	for _, st := range app.starts {
		if st.id == child {
			t.Errorf("aborted gang child %d started anyway", child)
		}
	}
	app.mu.Unlock()
	if app.killed != "" {
		t.Fatalf("gang abort killed the session: %q", app.killed)
	}
	mustCheck(t, f)
	_ = parent
}

// TestMigrateChildClusterWithHoldInFlight races MigrateCluster against an
// in-flight reservation: the child's cluster (hold placed, not committed)
// migrates onto the parent's shard. The hold must survive the move — carried
// in the cluster snapshot — and the gang must still resolve and run.
func TestMigrateChildClusterWithHoldInFlight(t *testing.T) {
	e, f := newMigrateFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	// Parent on beta (shard 1), child hold on gamma (shard 0, which also
	// owns alpha — so gamma is migratable).
	parent, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 3, Duration: 15, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(0.5) // hold placed, evaluation timer not yet fired: mid-reservation
	if _, err := f.MigrateCluster(cC, 1); err != nil {
		t.Fatalf("migrating cluster with in-flight hold = %v, want success", err)
	}
	mustCheck(t, f)
	e.Run(40)
	childStarted := false
	app.mu.Lock()
	for _, st := range app.starts {
		if st.id == child {
			childStarted = true
		}
	}
	app.mu.Unlock()
	if !childStarted {
		t.Fatalf("gang child %d never started after its cluster migrated mid-hold; starts = %v", child, app.starts)
	}
	mustCheck(t, f)
}

// TestMigrateParentClusterWithHoldInFlight is the mirror interleaving: the
// PARENT's cluster migrates while the child's hold is pending on the other
// shard, co-locating both legs on the child's shard. The reservation must
// still commit.
func TestMigrateParentClusterWithHoldInFlight(t *testing.T) {
	e, f := newMigrateFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 3, Duration: 15, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(0.5) // hold placed, not yet committed
	if _, err := f.MigrateCluster(cA, 1); err != nil {
		t.Fatalf("migrating parent cluster with in-flight hold = %v, want success", err)
	}
	mustCheck(t, f)
	e.Run(40)
	childStarted := false
	app.mu.Lock()
	for _, st := range app.starts {
		if st.id == child {
			childStarted = true
		}
	}
	app.mu.Unlock()
	if !childStarted {
		t.Fatalf("gang child %d never started after parent cluster migrated mid-hold; starts = %v", child, app.starts)
	}
	mustCheck(t, f)
}

// TestCommittedGangKeepsClustersMigratable: a committed cross-shard gang leaves both legs shard-locally
// FREE, so the clusters involved must remain migratable afterwards.
func TestCommittedGangKeepsClustersMigratable(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 100, Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: parent}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if n := f.Stats()["gang_committed"]; n != 1 {
		t.Fatalf("gang-committed counter = %d, want 1 before migration", n)
	}
	// Both legs live; historically the cross-shard relation would have
	// entangled alpha. It must migrate cleanly now.
	if _, err := f.MigrateCluster(cA, 1); err != nil {
		t.Fatalf("migrating cluster with committed gang leg = %v, want success", err)
	}
	mustCheck(t, f)
	e.Run(e.Now() + 5)
	mustCheck(t, f)
}

// TestCrashChildShardBetweenHoldAndCommit kills the shard holding the
// child's reservation before the parent finishes, under both recovery
// policies: requeue must replay the hold and still commit; kill must abort
// the gang without leaking the hold or killing the session (a hold has no
// live allocation behind it).
func TestCrashChildShardBetweenHoldAndCommit(t *testing.T) {
	t.Run("requeue", func(t *testing.T) {
		e, f := newRecoveryFederation(t, RequeueOnCrash)
		app := &testApp{}
		sess := f.Connect(app)
		parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 30, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: parent})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(0.5) // hold live, commit window still open
		rep := f.CrashShard(1)
		if rep.Requeued != 1 || rep.GangsAborted != 0 {
			t.Fatalf("crash report = %+v, want the hold requeued and no gang aborted", rep)
		}
		mustCheck(t, f)
		rrep := f.RestartShard(1)
		if rrep.Replayed != 1 {
			t.Fatalf("restart replayed %d, want 1 (the hold)", rrep.Replayed)
		}
		mustCheck(t, f)
		e.Run(50)
		childStarted := false
		app.mu.Lock()
		for _, st := range app.starts {
			if st.id == child {
				childStarted = true
			}
		}
		app.mu.Unlock()
		if !childStarted {
			t.Fatalf("replayed gang child %d never started; starts = %v", child, app.starts)
		}
		if n := f.Stats()["gang_committed"]; n != 1 {
			t.Errorf("gang-committed counter = %d, want 1", n)
		}
		mustCheck(t, f)
	})
	t.Run("kill", func(t *testing.T) {
		e, f := newRecoveryFederation(t, KillOnCrash)
		app := &testApp{}
		sess := f.Connect(app)
		parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 30, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: parent})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(0.5) // hold live, commit window still open
		rep := f.CrashShard(1)
		if rep.GangsAborted != 1 {
			t.Fatalf("crash report = %+v, want exactly the gang aborted", rep)
		}
		if len(rep.Killed) != 0 {
			t.Fatalf("crash killed %v — a hold has no allocation and must not kill its session", rep.Killed)
		}
		if app.killed != "" {
			t.Fatalf("session killed (%q) by losing a hold", app.killed)
		}
		if n := f.Stats()["gang_aborted"]; n != 1 {
			t.Errorf("gang-aborted counter = %d, want 1", n)
		}
		mustCheck(t, f)
		f.RestartShard(1)
		e.Run(50)
		app.mu.Lock()
		for _, st := range app.starts {
			if st.id == child {
				t.Errorf("aborted gang child %d started after restart", child)
			}
		}
		app.mu.Unlock()
		mustCheck(t, f)
	})
}

// TestCrashParentShardBetweenHoldAndCommit kills the coordinator-side
// shard — the one running the PARENT leg — while the child's hold is live
// on the surviving shard. Requeue replays the parent and the gang still
// commits; kill tears the session down, which must release the orphaned
// hold on the surviving shard (no leak).
func TestCrashParentShardBetweenHoldAndCommit(t *testing.T) {
	t.Run("requeue", func(t *testing.T) {
		e, f := newRecoveryFederation(t, RequeueOnCrash)
		app := &testApp{}
		sess := f.Connect(app)
		parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 30, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: parent})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(0.5) // hold live, commit window still open
		rep := f.CrashShard(0)
		if rep.Requeued != 1 {
			t.Fatalf("crash report = %+v, want the started parent requeued", rep)
		}
		mustCheck(t, f)
		f.RestartShard(0)
		mustCheck(t, f)
		e.Run(80)
		started := map[request.ID]int{}
		app.mu.Lock()
		for _, st := range app.starts {
			started[st.id]++
		}
		app.mu.Unlock()
		if started[child] != 1 {
			t.Fatalf("gang child started %d times, want 1; starts = %v", started[child], started)
		}
		if n := f.Stats()["gang_committed"]; n != 1 {
			t.Errorf("gang-committed counter = %d, want 1", n)
		}
		mustCheck(t, f)
	})
	t.Run("kill", func(t *testing.T) {
		e, f := newRecoveryFederation(t, KillOnCrash)
		app := &testApp{}
		sess := f.Connect(app)
		parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 30, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: parent}); err != nil {
			t.Fatal(err)
		}
		e.Run(0.5) // hold live, commit window still open
		rep := f.CrashShard(0)
		if len(rep.Killed) != 1 || rep.Killed[0] != sess.AppID() {
			t.Fatalf("crash killed %v, want [%d] (parent allocation lost)", rep.Killed, sess.AppID())
		}
		if app.killed == "" {
			t.Fatal("session survived losing its started parent under kill policy")
		}
		// Teardown must have released the hold on the surviving shard: the
		// invariant checker rejects any held request without a session.
		mustCheck(t, f)
		f.RestartShard(0)
		e.Run(20)
		mustCheck(t, f)
	})
}
