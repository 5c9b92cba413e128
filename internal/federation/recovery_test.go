package federation

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

func newRecoveryFederation(t *testing.T, pol RecoveryPolicy) (*sim.Engine, *Federator) {
	t.Helper()
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Recovery:        pol,
		Metrics: func(int) *metrics.Recorder {
			return metrics.NewRecorder()
		},
	})
	if f.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", f.NumShards())
	}
	return e, f
}

func mustCheck(t *testing.T, f *Federator) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestCrashKillPolicyKillsAffectedSparesBystander(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	victim, bystander := &testApp{}, &testApp{}
	vs := f.Connect(victim)
	bs := f.Connect(bystander)
	if _, err := vs.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	shardA, _ := f.Owner(cA)
	rep := f.CrashShard(shardA)
	if !f.ShardDown(shardA) {
		t.Fatal("shard should be down")
	}
	if len(rep.Killed) != 1 || rep.Killed[0] != vs.AppID() {
		t.Fatalf("killed = %v, want [%d]", rep.Killed, vs.AppID())
	}
	if victim.killed == "" || !strings.Contains(victim.killed, "crashed") {
		t.Fatalf("victim OnKill = %q, want crash reason", victim.killed)
	}
	if bystander.killed != "" {
		t.Fatalf("bystander killed: %q", bystander.killed)
	}
	if got := f.Stats()["killed_sessions"]; got != 1 {
		t.Errorf("killed-sessions counter = %d, want 1", got)
	}
	// The bystander immediately sees views without the dead shard's cluster.
	np, _ := bystander.heldViews(t)
	if _, ok := np[cA]; ok {
		t.Errorf("dead shard's cluster still visible: %v", np)
	}
	// Requests targeting the dead shard fail under the kill policy.
	if _, err := bs.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("request to dead shard = %v, want shard-down error", err)
	}
	mustCheck(t, f)

	// Restart: the shard rejoins empty, the bystander is re-admitted and its
	// views recover the full cluster set with every node free.
	rrep := f.RestartShard(shardA)
	if rrep.Reconnected != 1 {
		t.Fatalf("reconnected = %d, want 1 (bystander only)", rrep.Reconnected)
	}
	e.Run(e.Now() + 5)
	np, _ = bystander.heldViews(t)
	if got := np.Get(cA).Value(e.Now()); got != 8 {
		t.Errorf("restarted cluster shows %d nodes, want 8", got)
	}
	// And it is usable again.
	if _, err := bs.Request(rms.RequestSpec{Cluster: cA, N: 8, Duration: 10, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 5)
	mustCheck(t, f)
}

func TestCrashRequeuePolicyReplaysUnderSameFederatedIDs(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	idA, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 3, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v, want 2", app.starts)
	}

	shardA, _ := f.Owner(cA)
	rep := f.CrashShard(shardA)
	if len(rep.Killed) != 0 {
		t.Fatalf("requeue policy killed %v", rep.Killed)
	}
	if rep.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", rep.Requeued)
	}
	if app.killed != "" {
		t.Fatalf("session killed under requeue: %q", app.killed)
	}
	// A new request targeting the dead shard is queued, not refused.
	idA2, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if got := f.Stats()["requeued_requests"]; got != 2 {
		t.Errorf("requeued counter = %d, want 2", got)
	}
	// The request on the surviving shard still works.
	if err := sess.Done(idB, nil); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)

	rrep := f.RestartShard(shardA)
	if rrep.Replayed != 2 || rrep.Dropped != 0 {
		t.Fatalf("restart report = %+v, want 2 replayed", rrep)
	}
	// The restarted shard holds the replayed requests under the IDs request()
	// returned, not under its own fresh admission sequence.
	if got := shardRequests(sess, shardA); !reflect.DeepEqual(got, []request.ID{idA, idA2}) {
		t.Fatalf("shard %d holds %v after replay, want [%d %d]", shardA, got, idA, idA2)
	}
	e.Run(e.Now() + 5)
	// Both the lost and the queued request started under their original IDs.
	started := map[request.ID]int{}
	app.mu.Lock()
	for _, st := range app.starts {
		started[st.id] = len(st.ids)
	}
	app.mu.Unlock()
	if started[idA] != 3 || started[idA2] != 1 {
		t.Fatalf("replayed starts = %v, want %d:3 and %d:1", started, idA, idA2)
	}
	if got := f.Stats()["replayed_requests"]; got != 2 {
		t.Errorf("replayed counter = %d, want 2", got)
	}
	mustCheck(t, f)
	// The replayed requests are fully operational: done() releases them.
	if err := sess.Done(idA, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Done(idA2, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 5)
	mustCheck(t, f)
}

func TestDoneOnQueuedRequestDropsIt(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	e.Run(2)
	shardA, _ := f.Owner(cA)
	f.CrashShard(shardA)
	id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 10, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Done(id, nil); err != nil {
		t.Fatalf("done on queued request: %v", err)
	}
	if got := f.Stats()["dropped_requests"]; got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
	// Nothing left to replay.
	rrep := f.RestartShard(shardA)
	if rrep.Replayed != 0 || rrep.Dropped != 0 {
		t.Fatalf("restart report = %+v, want empty replay", rrep)
	}
	e.Run(e.Now() + 3)
	mustCheck(t, f)
}

// TestRequeueNextChainAcrossCrash pins the relation rewrite: a NEXT child
// whose parent is requeued keeps the relation; a NEXT child whose parent
// was already finished replays unconstrained.
func TestRequeueNextChainAcrossCrash(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	child, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 50, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	shardA, _ := f.Owner(cA)
	rep := f.CrashShard(shardA)
	if rep.Requeued != 2 {
		t.Fatalf("requeued = %d, want 2 (parent+child)", rep.Requeued)
	}
	rrep := f.RestartShard(shardA)
	if rrep.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", rrep.Replayed)
	}
	e.Run(e.Now() + 5)
	// The parent restarted; the child still waits for it (NEXT), proving the
	// relation survived the crash.
	app.mu.Lock()
	startCount := map[request.ID]int{}
	for _, st := range app.starts {
		startCount[st.id]++
	}
	app.mu.Unlock()
	if startCount[parent] != 2 { // once before the crash, once after replay
		t.Fatalf("parent starts = %d, want 2; starts=%v", startCount[parent], startCount)
	}
	if startCount[child] != 0 {
		t.Fatalf("NEXT child started while its parent runs")
	}
	// Finish the parent: the child takes over.
	if err := sess.Done(parent, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 5)
	app.mu.Lock()
	childStarted := false
	for _, st := range app.starts {
		if st.id == child {
			childStarted = true
		}
	}
	app.mu.Unlock()
	if !childStarted {
		t.Fatal("NEXT child never started after the parent finished")
	}
	mustCheck(t, f)
}

// TestIDTablePruning is the leak-regression test for the session's request
// table: after a full request/done cycle (plus the GC round) it is empty
// again, and so are the shards' request sets for the session.
func TestIDTablePruning(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	tableSize := func() (int, int) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		onShards := 0
		for _, sub := range sess.subs {
			onShards += len(sub.RequestIDs())
		}
		return len(sess.reqs), onShards
	}
	clusters := []view.ClusterID{cA, cB}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		id, err := sess.Request(rms.RequestSpec{
			Cluster: clusters[i%2], N: 1 + i%4, Duration: 5, Type: request.NonPreempt,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 2)
		if err := sess.Done(id, nil); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 4)
	}
	// Let expiries and GC settle.
	e.Run(e.Now() + 30)
	table, onShards := tableSize()
	if table != 0 || onShards != 0 {
		t.Fatalf("request table leaks: %d records, %d shard-side requests after %d finished requests", table, onShards, rounds)
	}
	mustCheck(t, f)
}

// TestErrorIDTranslation is the table-driven test over every error path
// that crosses the Federator boundary quoting a request ID: the quoted ID
// must be the one request() returned — there is no shard-local one to leak
// (a shard's own admission sequence is never an ID).
func TestErrorIDTranslation(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	// Session 1 burns IDs on shard A so that session 2's admission sequence
	// on shard B diverges from its IDs.
	s1 := f.Connect(&testApp{})
	for i := 0; i < 3; i++ {
		if _, err := s1.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	app := &testApp{}
	sess := f.Connect(app)
	// ID 4, first admission on shard B.
	parent, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if parent != 4 {
		t.Fatalf("test setup: parent fed ID = %d, want 4", parent)
	}
	e.Run(3)
	// A pending NEXT child keeps the parent's released-node validation
	// active (released IDs are checked against the parent's holding).
	if _, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 50, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent}); err != nil {
		t.Fatal(err)
	}

	// doneTwice provisions a finished request: ID 6, third admission on B.
	doneTwice, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 3)
	if err := sess.Done(doneTwice, nil); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		op      func() error
		wantID  request.ID
		wantMsg string
	}{
		{
			name:    "done unknown request",
			op:      func() error { return sess.Done(999, nil) },
			wantID:  999,
			wantMsg: "rms: request 999 not found",
		},
		{
			name:    "done already finished (shard-side, translated)",
			op:      func() error { return sess.Done(doneTwice, nil) },
			wantID:  doneTwice,
			wantMsg: "rms: request 6 already finished",
		},
		{
			name: "related request unknown (federation-side)",
			op: func() error {
				_, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1, Type: request.NonPreempt,
					RelatedHow: request.Next, RelatedTo: 888})
				return err
			},
			wantID:  888,
			wantMsg: "rms: related request 888 not found",
		},
		{
			name:    "released node not held (shard-side, translated)",
			op:      func() error { return sess.Done(parent, []int{99}) },
			wantID:  parent,
			wantMsg: "rms: released node 99 is not held by request 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op()
			if err == nil {
				t.Fatal("expected an error")
			}
			var re *rms.RequestError
			if !errors.As(err, &re) {
				t.Fatalf("error %v is not a *rms.RequestError", err)
			}
			if re.ID != tc.wantID {
				t.Errorf("quoted ID = %d, want %d (err: %v)", re.ID, tc.wantID, err)
			}
			if err.Error() != tc.wantMsg {
				t.Errorf("message = %q, want %q", err.Error(), tc.wantMsg)
			}
		})
	}
	mustCheck(t, f)
}

// observerApp extends testApp with rms.RequestObserver recording.
type observerApp struct {
	testApp
	finished []request.ID
	reaped   []request.ID
}

func (a *observerApp) OnRequestFinished(id request.ID)   { a.finished = append(a.finished, id) }
func (a *observerApp) OnRequestsReaped(ids []request.ID) { a.reaped = append(a.reaped, ids...) }

// TestCrashAfterLogicalEndCompletesInsteadOfRequeue is the ghost-re-run
// regression: a non-preemptible allocation whose full duration elapsed
// before the crash — the shard's end-of-round sweep died with the shard
// before recording the finish — is completed work. Under either policy it
// is purged with finish notifications: not re-run (RequeueOnCrash) and not
// §3.1.4 grounds to kill the session (KillOnCrash). The crash event is
// armed before the request exists, so at the shared instant t=end it fires
// ahead of the shard's own expiry wake-up.
func TestCrashAfterLogicalEndCompletesInsteadOfRequeue(t *testing.T) {
	for _, pol := range []RecoveryPolicy{KillOnCrash, RequeueOnCrash} {
		t.Run(pol.String(), func(t *testing.T) {
			e, f := newRecoveryFederation(t, pol)
			app := &observerApp{}
			sess := f.Connect(app)
			shardA, _ := f.Owner(cA)
			var rep CrashReport
			e.At(100.5, "test.crash", func() { rep = f.CrashShard(shardA) })
			id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100.5, Type: request.NonPreempt})
			if err != nil {
				t.Fatal(err)
			}
			e.Run(3)
			if len(app.starts) != 1 {
				t.Fatalf("starts = %v, want the allocation started", app.starts)
			}
			e.Run(120)
			if rep.Requeued != 0 || len(rep.Killed) != 0 || rep.Purged != 1 {
				t.Fatalf("crash report = %+v, want 1 purged, nothing requeued or killed", rep)
			}
			if app.killed != "" {
				t.Fatalf("session killed (%q) for completed work", app.killed)
			}
			if len(app.finished) != 1 || app.finished[0] != id {
				t.Fatalf("finished = %v, want [%d]", app.finished, id)
			}
			if len(app.reaped) != 1 || app.reaped[0] != id {
				t.Fatalf("reaped = %v, want [%d]", app.reaped, id)
			}
			if got := f.Stats()["requeued_requests"]; got != 0 {
				t.Errorf("requeued counter = %d, want 0", got)
			}
			mustCheck(t, f)
			// After a restart nothing replays: the work is done, not lost.
			f.RestartShard(shardA)
			e.Run(e.Now() + 50)
			if len(app.starts) != 1 {
				t.Fatalf("starts = %v after restart, completed work must not re-run", app.starts)
			}
			mustCheck(t, f)
		})
	}
}

// TestCrashDeliversReapForFinishedUnreapedRequests pins the finish→reap
// pairing across a crash: a request that finished (finish delivered) but
// was not yet GC-reaped when its shard died still gets the reap the dead
// shard's GC would have produced, so observer tables prune in lockstep.
func TestCrashDeliversReapForFinishedUnreapedRequests(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	app := &observerApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	// A pending NEXT child keeps the finished parent referable: the shard
	// cannot reap it until the child starts.
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 10,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: parent}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Done(parent, nil); err != nil {
		t.Fatal(err)
	}
	if len(app.finished) != 1 || app.finished[0] != parent {
		t.Fatalf("finished = %v, want [%d] from done()", app.finished, parent)
	}
	reapedBefore := len(app.reaped)
	// Crash before the engine runs another round (no GC chance).
	shardA, _ := f.Owner(cA)
	f.CrashShard(shardA)
	found := false
	for _, fid := range app.reaped[reapedBefore:] {
		if fid == parent {
			found = true
		}
	}
	if !found {
		t.Fatalf("reaped = %v, want the finished parent %d reaped by the crash sweep", app.reaped, parent)
	}
	mustCheck(t, f)
}

// TestDoubleCrashBeforeReplayRestartsKeepsWorkQueued pins the stale-start
// regression: a requeued request carries its interrupted run's start time,
// and if the shard dies again before the replay ever re-starts, that stale
// start must not make the request read as an allocation that ran out its
// duration (completed work). It stays interrupted work: requeued again and
// eventually re-run to a real completion.
func TestDoubleCrashBeforeReplayRestartsKeepsWorkQueued(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	app := &observerApp{}
	sess := f.Connect(app)
	id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v, want the allocation started", app.starts)
	}
	shardA, _ := f.Owner(cA)
	f.CrashShard(shardA) // interrupts the run at t=50
	e.Run(150)           // well past the first run's would-be end at t≈100
	f.RestartShard(shardA)
	// Crash again before the engine runs a scheduling round: the replayed
	// request was re-submitted but never re-started.
	f.CrashShard(shardA)
	if len(app.finished) != 0 {
		t.Fatalf("finished = %v: never-re-run work misclassified as completed", app.finished)
	}
	mustCheck(t, f)
	f.RestartShard(shardA)
	e.Run(e.Now() + 200)
	if len(app.finished) != 1 || app.finished[0] != id {
		t.Fatalf("finished = %v, want [%d] after the re-run completes", app.finished, id)
	}
	mustCheck(t, f)
}

// TestCrashWithRealClockRace exercises crash/restart under the real clock
// with concurrent sessions (run with -race).
func TestCrashWithRealClockRace(t *testing.T) {
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 32, cB: 32},
		Shards:          2,
		ReschedInterval: 0.001,
		Clock:           clock.NewRealClock(),
		Recovery:        RequeueOnCrash,
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		app := &testApp{}
		sess := f.Connect(app)
		for {
			select {
			case <-stop:
				sess.Disconnect()
				return
			default:
			}
			id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: math.Inf(1), Type: request.Preempt})
			if err != nil {
				continue // shard may be down mid-crash
			}
			_ = sess.Done(id, nil)
		}
	}()
	shardA, _ := f.Owner(cA)
	for i := 0; i < 5; i++ {
		f.CrashShard(shardA)
		f.RestartShard(shardA)
	}
	close(stop)
	<-done
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent crash/restart: %v", err)
	}
}

// TestReplayOrderIsSubmissionOrder pins the replay order, which is read off
// the request table: a restarted shard admits the session's queued records in
// ascending ID — submission — order, whether the crash sweep queued them (A,
// a requeued hold H, C) or they were submitted while the shard was down (D,
// E), with a withdrawn one (B) simply gone. A second crash before anything
// finishes replays the same sequence.
func TestReplayOrderIsSubmissionOrder(t *testing.T) {
	e, f := newRecoveryFederation(t, RequeueOnCrash)
	sess := f.Connect(&testApp{})
	shardB, _ := f.Owner(cB)
	onB := func() request.ID {
		t.Helper()
		id, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1000, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 1000, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	a, b := onB(), onB()
	// A cross-shard gang child: a hold on cB's shard between ordinary records.
	h, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1000, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	c := onB()
	e.Run(0.5) // A, B, C start; H is still an uncommitted hold
	if st, _ := stateOf(sess, h); st != held {
		t.Fatalf("gang child state = %d, want held", st)
	}

	f.CrashShard(shardB)
	d, e2 := onB(), onB() // submitted while the shard is down
	if err := sess.Done(b, nil); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)
	want := []request.ID{a, h, c, d, e2}
	for round := 1; round <= 2; round++ {
		rep := f.RestartShard(shardB)
		if rep.Replayed != len(want) || rep.Dropped != 0 {
			t.Fatalf("restart %d: %+v, want %d replayed, none dropped", round, rep, len(want))
		}
		mustCheck(t, f)
		sess.mu.Lock()
		sub := sess.subs[shardB]
		sess.mu.Unlock()
		if got := sub.RequestIDs(); !slices.Equal(got, want) {
			t.Fatalf("restart %d: shard holds %v, want %v", round, got, want)
		}
		var lastSeq int64
		for _, r := range f.Shard(shardB).Scheduler().App(sess.AppID()).Requests() {
			if r.Seq <= lastSeq {
				t.Fatalf("restart %d: request %d admitted with Seq %d after Seq %d", round, r.ID, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
		}
		if st, _ := stateOf(sess, h); st != held {
			t.Fatalf("restart %d: gang child state = %d, want held", round, st)
		}
		if round == 1 {
			f.CrashShard(shardB) // again, before anything finishes
			mustCheck(t, f)
		}
	}
	e.Run(e.Now() + 10)
	mustCheck(t, f)
	for _, id := range want {
		if st, ok := stateOf(sess, id); !ok || st != placed {
			t.Fatalf("request %d settled in state %d (present %t), want placed", id, st, ok)
		}
	}
}

// TestConnectRacesCrashRestart races the two shard admissions — Connect's
// fan-out and RestartShard's re-admission — under the real clock (run with
// -race): every session must end up admitted exactly once to every running
// shard (a second admission panics in admitShard) and no shard may keep a
// session the federation forgot.
func TestConnectRacesCrashRestart(t *testing.T) {
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 32, cB: 32},
		Shards:          2,
		ReschedInterval: 0.001,
		Clock:           clock.NewRealClock(),
		Recovery:        RequeueOnCrash,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var connects atomic.Int64
	for w := 0; w < 4; w++ {
		cid := []view.ClusterID{cA, cB}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sess := f.Connect(&testApp{})
				connects.Add(1)
				select {
				case <-stop:
					return // the last session stays connected for the check
				default:
				}
				if id, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 1, Duration: math.Inf(1), Type: request.Preempt}); err == nil {
					_ = sess.Done(id, nil)
				}
				sess.Disconnect()
			}
		}()
	}
	for i := 0; connects.Load() < 200; i++ {
		f.CrashShard(i % 2)
		f.RestartShard(i % 2)
	}
	close(stop)
	wg.Wait()
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after Connect raced crash/restart: %v", err)
	}
}
