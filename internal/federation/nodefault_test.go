package federation

import (
	"math"
	"sync"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// nodeTestApp records node-failure events on top of testApp.
type nodeTestApp struct {
	testApp
	fmu      sync.Mutex
	failures []rms.NodeFailure
}

func (a *nodeTestApp) OnNodeFailure(ev rms.NodeFailure) {
	a.fmu.Lock()
	a.failures = append(a.failures, ev)
	a.fmu.Unlock()
}

func newNodeFaultFederation(t *testing.T, pol rms.NodeRecoveryPolicy) (*sim.Engine, *Federator) {
	t.Helper()
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Recovery:        RequeueOnCrash,
		NodeRecovery:    pol,
		Metrics: func(int) *metrics.Recorder {
			return metrics.NewRecorder()
		},
	})
	if f.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", f.NumShards())
	}
	return e, f
}

func TestFailNodesRoutesToOwningShardAndTranslatesIDs(t *testing.T) {
	e, f := newNodeFaultFederation(t, rms.CooperativeOnNodeFailure)
	app := &nodeTestApp{}
	sess := f.Connect(app)
	fid, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 4, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(app.starts) != 1 {
		t.Fatal("request did not start")
	}
	victim := app.starts[0].ids[0]

	rep, err := f.FailNodes(cA, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || rep.Reduced != 1 || rep.Capacity != 7 {
		t.Fatalf("report = %+v, want applied, 1 reduced, capacity 7", rep)
	}
	if own, _ := f.Owner(cA); rep.Shard != own {
		t.Errorf("report shard = %d, want owner %d", rep.Shard, own)
	}
	app.fmu.Lock()
	failures := append([]rms.NodeFailure(nil), app.failures...)
	app.fmu.Unlock()
	if len(failures) != 1 {
		t.Fatalf("failures = %+v, want 1", failures)
	}
	// The event carries the *federated* request ID, not the shard-local one.
	if failures[0].Request != fid {
		t.Errorf("event request = %d, want federated ID %d", failures[0].Request, fid)
	}
	if failures[0].Action != rms.NodeFaultReduced {
		t.Errorf("action = %v, want reduced (the app cooperates)", failures[0].Action)
	}
	mustCheck(t, f)

	rrep, err := f.RecoverNodes(cA, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Applied || rrep.Capacity != 8 {
		t.Fatalf("recover report = %+v, want applied, capacity 8", rrep)
	}
	e.Run(e.Now() + 3)
	mustCheck(t, f)
}

func TestCooperationDetectionSeesThroughShardHandler(t *testing.T) {
	// The shardHandler always implements rms.NodeFailureHandler; the shard
	// must still requeue (not reduce) when the application behind it does
	// not cooperate.
	e, f := newNodeFaultFederation(t, rms.CooperativeOnNodeFailure)
	app := &testApp{} // no OnNodeFailure
	sess := f.Connect(app)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 4, Duration: 50, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(app.starts) != 1 {
		t.Fatal("request did not start")
	}
	victim := app.starts[0].ids[0]
	rep, err := f.FailNodes(cA, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued != 1 || rep.Reduced != 0 {
		t.Fatalf("report = %+v, want the non-cooperating app requeued", rep)
	}
	e.RunAll()
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v, want a re-start on surviving nodes", app.starts)
	}
	mustCheck(t, f)
}

func TestFailNodesWhileShardDownAppliesAtRestart(t *testing.T) {
	e, f := newNodeFaultFederation(t, rms.KillOnNodeFailure)
	app := &nodeTestApp{}
	f.Connect(app)
	e.Run(2)
	shardA, _ := f.Owner(cA)
	f.CrashShard(shardA)

	rep, err := f.FailNodes(cA, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatalf("report = %+v, want deferred (shard down)", rep)
	}
	// The crashed shard's pools record the failure.
	if got := f.Shard(shardA).FailedNodeIDs(cA); len(got) != 2 {
		t.Fatalf("recorded failed = %v, want [2 5]", got)
	}
	// A recovery while the shard is down shrinks that record.
	if _, err := f.RecoverNodes(cA, []int{5}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)

	f.RestartShard(shardA)
	e.Run(e.Now() + 3)
	// The restarted shard rejoined with node 2 already down.
	if got := f.Shard(shardA).FailedNodeIDs(cA); len(got) != 1 || got[0] != 2 {
		t.Fatalf("shard failed IDs = %v, want [2]", got)
	}
	np, _ := app.heldViews(t)
	if got := np.Get(cA).Value(e.Now()); got != 7 {
		t.Errorf("restarted cluster shows %d nodes, want 7 (one still down)", got)
	}
	mustCheck(t, f)
}

func TestMigrateClusterCarriesFailedNodes(t *testing.T) {
	// Two clusters per shard: a shard must keep at least one cluster, so a
	// one-each layout could not migrate at all.
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8, cC: 8, view.ClusterID("delta"): 8},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		NodeRecovery:    rms.KillOnNodeFailure,
		Metrics: func(int) *metrics.Recorder {
			return metrics.NewRecorder()
		},
	})
	app := &nodeTestApp{}
	f.Connect(app)
	e.Run(2)
	if _, err := f.FailNodes(cA, []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)

	from, _ := f.Owner(cA)
	to := 1 - from
	if _, err := f.MigrateCluster(cA, to); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Owner(cA); got != to {
		t.Fatalf("owner after migration = %d, want %d", got, to)
	}
	// The degraded capacity followed the cluster to its new shard.
	if got := f.Shard(to).FailedNodeIDs(cA); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("target shard failed IDs = %v, want [0 3]", got)
	}
	mustCheck(t, f)

	// And the nodes recover on the new owner.
	if _, err := f.RecoverNodes(cA, []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 3)
	if got := f.Shard(to).FailedNodeIDs(cA); len(got) != 0 {
		t.Fatalf("failed IDs after recovery = %v, want none", got)
	}
	mustCheck(t, f)
}

func TestFailNodesValidationAtFederation(t *testing.T) {
	_, f := newNodeFaultFederation(t, rms.KillOnNodeFailure)
	if _, err := f.FailNodes("nope", []int{0}); err == nil {
		t.Error("unknown cluster should error")
	}
	if _, err := f.RecoverNodes(cA, []int{0}); err == nil {
		t.Error("recovering an up node should error")
	}
	if _, err := f.FailNodes(cA, []int{1, 1}); err == nil {
		t.Error("duplicate node should error")
	}
	if _, err := f.FailNodes(cA, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FailNodes(cA, []int{1}); err == nil {
		t.Error("failing a down node should error")
	}
	mustCheck(t, f)
}

// TestFailedNodesCountedOnce pins the shard's pools as the one record of a
// dead machine: crash/restart cycles keep it down without failing it again,
// so failed_nodes (served on coormd's /metrics) counts it once.
func TestFailedNodesCountedOnce(t *testing.T) {
	e, f := newNodeFaultFederation(t, rms.KillOnNodeFailure)
	f.Connect(&nodeTestApp{})
	e.Run(2)
	shardA, _ := f.Owner(cA)
	if _, err := f.FailNodes(cA, []int{3}); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		f.CrashShard(shardA)
		e.Run(e.Now() + 1)
		f.RestartShard(shardA)
		e.Run(e.Now() + 1)
		mustCheck(t, f)
	}
	if got := f.Shard(shardA).Stats()["failed_nodes"]; got != 1 {
		t.Errorf("failed_nodes after 3 crash/restart cycles = %d, want 1", got)
	}
	if got := f.Shard(shardA).FailedNodeIDs(cA); len(got) != 1 || got[0] != 3 {
		t.Errorf("shard failed IDs = %v, want [3]", got)
	}
}

// TestRestartRunningShardIsNoOp pins that RestartShard, rms.Server.Reset's
// only caller, never resets a running shard (Reset panics on one), and that
// CrashShard on a crashed shard does nothing either.
func TestRestartRunningShardIsNoOp(t *testing.T) {
	e, f := newNodeFaultFederation(t, rms.KillOnNodeFailure)
	app := &nodeTestApp{}
	sess := f.Connect(app)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	shardA, _ := f.Owner(cA)
	if rep := f.RestartShard(shardA); rep != (RestartReport{Shard: shardA}) {
		t.Errorf("restart of a running shard = %+v, want a no-op", rep)
	}
	if len(app.starts) != 1 || f.ShardDown(shardA) {
		t.Fatalf("running shard disturbed: starts %v, down %t", app.starts, f.ShardDown(shardA))
	}
	f.CrashShard(shardA)
	if rep := f.CrashShard(shardA); len(rep.Killed) != 0 || rep.Purged != 0 || rep.Requeued != 0 {
		t.Errorf("crash of a crashed shard = %+v, want a no-op", rep)
	}
	mustCheck(t, f)
}
