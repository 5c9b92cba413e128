package federation

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// newMigrateFederation builds a 2-shard federation over three clusters:
// Partition assigns {alpha, gamma} to shard 0 and {beta} to shard 1.
func newMigrateFederation(t *testing.T, pol RecoveryPolicy) (*sim.Engine, *Federator) {
	t.Helper()
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8, cC: 8},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Recovery:        pol,
		Metrics:         func(int) *metrics.Recorder { return metrics.NewRecorder() },
	})
	if s, _ := f.Owner(cA); s != 0 {
		t.Fatalf("alpha on shard %d, want 0", s)
	}
	if s, _ := f.Owner(cC); s != 0 {
		t.Fatalf("gamma on shard %d, want 0", s)
	}
	return e, f
}

// shardRequests returns the IDs of the requests shard i holds for sess.
func shardRequests(sess *Session, i int) []request.ID {
	sess.mu.Lock()
	sub := sess.subs[i]
	sess.mu.Unlock()
	return sub.RequestIDs()
}

func TestMigrateClusterHandsOverLiveState(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	app, bystander := &testApp{}, &testApp{}
	sess := f.Connect(app)
	bsess := f.Connect(bystander)

	np, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 3, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 2, Duration: 50, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: np})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bsess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(app.starts) != 1 || app.starts[0].id != np {
		t.Fatalf("starts before migration = %v, want [%d]", app.starts, np)
	}

	rep, err := f.MigrateCluster(cC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 0 || rep.To != 1 || rep.Requests != 2 || rep.Nodes != 3 || rep.Apps != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if s, _ := f.Owner(cC); s != 1 {
		t.Fatalf("gamma owned by shard %d after migration, want 1", s)
	}
	mustCheck(t, f)
	if got := f.Stats()["migrated_clusters"]; got != 1 {
		t.Errorf("migrated-clusters counter = %d, want 1", got)
	}
	// The new shard holds both requests under the IDs request() returned.
	if got := shardRequests(sess, 1); !reflect.DeepEqual(got, []request.ID{np, child}) {
		t.Fatalf("shard 1 holds %v after migration, want [%d %d]", got, np, child)
	}

	// The running allocation finishes under its original ID — on the new
	// shard — and the NEXT child starts there with inherited node IDs.
	if err := sess.Done(np, nil); err != nil {
		t.Fatalf("done on migrated request: %v", err)
	}
	e.Run(e.Now() + 3)
	started := false
	for _, st := range app.starts {
		if st.id == child && len(st.ids) == 2 {
			started = true
		}
	}
	if !started {
		t.Fatalf("migrated NEXT child never started; starts = %v", app.starts)
	}
	mustCheck(t, f)

	// The bystander's views show the migrated cluster at full capacity once
	// its allocations drain.
	e.Run(e.Now() + 60)
	nv, _ := bystander.heldViews(t)
	if got := nv.Get(cC).Value(e.Now()); got != 8 {
		t.Errorf("migrated cluster shows %d free nodes, want 8", got)
	}

	// New requests for the cluster route to the new owner.
	id2, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 1, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(e.Now() + 2)
	if err := sess.Done(id2, nil); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)
}

func TestMigrateClusterErrors(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	sess := f.Connect(&testApp{})
	px, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 1, Duration: 1e6, Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: px}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)

	if _, err := f.MigrateCluster("nope", 1); err == nil {
		t.Fatal("migrated an unknown cluster")
	}
	if _, err := f.MigrateCluster(cA, 0); err == nil || !strings.Contains(err.Error(), "already owned") {
		t.Fatalf("same-shard migration = %v", err)
	}
	if _, err := f.MigrateCluster(cA, 5); err == nil {
		t.Fatal("migrated to an out-of-range shard")
	}
	// alpha↔gamma carry a live COALLOC: the detach converts the crossing
	// relation into an equivalent NotBefore floor and the cluster migrates.
	if _, err := f.MigrateCluster(cC, 1); err != nil {
		t.Fatalf("entangled migration = %v, want the relation severed", err)
	}
	mustCheck(t, f)
	// alpha is now shard 0's only cluster.
	if _, err := f.MigrateCluster(cA, 1); !errors.Is(err, rms.ErrLastCluster) {
		t.Fatalf("last-cluster migration = %v, want ErrLastCluster", err)
	}
	// Down shards refuse migrations in either direction.
	f.CrashShard(1)
	if _, err := f.MigrateCluster(cC, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("migration from down shard = %v", err)
	}
	f.RestartShard(1)
	mustCheck(t, f)
}

// TestMigrationRefusedAttachReturnsToDonor drives MigrateCluster's refusal
// path: the target refuses the attach, and the snapshot goes back to the
// donor. The panic behind it (the donor refusing too) is unreachable: under
// topoMu the donor is running (checked, and no crash can intervene), it has
// just detached the cluster, and its sessions hold none of the snapshot's
// request IDs, which the Federator drew once and never reuses. The target's
// refusal is forced here from inside the package, by holding one of those
// IDs on the target behind the federation's back; no caller outside it can.
//
// The segment naming alpha lost reaches the application only after alpha is
// back on the donor and the migration has ended: the application submits to
// alpha from inside that delivery, which would otherwise wait for the
// migration it runs inside.
func TestMigrationRefusedAttachReturnsToDonor(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	app := &lostResubmitter{testApp: &testApp{}, cid: cA}
	sess := f.Connect(app)
	app.sess = sess
	id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	sess.mu.Lock()
	target := sess.subs[1]
	sess.mu.Unlock()
	// A hold never starts, so the target never reports the stray ID.
	if err := target.HoldID(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1e6, Type: request.NonPreempt}, id, 0, nil); err != nil {
		t.Fatal(err)
	}

	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		_, err = f.MigrateCluster(cA, 1)
	}()
	select {
	case <-migrated:
	case <-time.After(10 * time.Second):
		t.Fatal("MigrateCluster hangs in a delivery that submits to the migrating cluster")
	}
	var re *rms.RequestError
	if !errors.As(err, &re) || re.ID != id || re.Reason != rms.ReasonInUse {
		t.Fatalf("MigrateCluster onto a colliding ID = %v, want request %d %s", err, id, rms.ReasonInUse)
	}
	if app.err != nil || app.id == 0 {
		t.Fatalf("the submit from inside the delivery returned request %d, %v", app.id, app.err)
	}
	if got := shardRequests(sess, 0); !slices.Contains(got, app.id) {
		t.Fatalf("shard 0 holds %v, want the request %d submitted mid-delivery", got, app.id)
	}
	if owner, _ := f.Owner(cA); owner != 0 {
		t.Fatalf("alpha on shard %d after the refused attach, want 0", owner)
	}
	if _, ok := f.Shard(0).Clusters()[cA]; !ok {
		t.Fatal("the donor does not hold alpha again")
	}
	if got := shardRequests(sess, 0); !slices.Contains(got, id) {
		t.Fatalf("shard 0 holds %v, want request %d back", got, id)
	}
	if err := target.ReleaseHold(id); err != nil {
		t.Fatal(err)
	}
	e.Run(6)
	mustCheck(t, f)
	for _, l := range f.Shard(0).ClusterLoads() {
		if l.Cluster == cA && l.Held != 3 {
			t.Fatalf("alpha holds %d nodes after the refused migration, want request %d's 2 and request %d's 1", l.Held, id, app.id)
		}
	}
	if app.killed != "" {
		t.Fatalf("session killed: %s", app.killed)
	}
}

// lostResubmitter submits one request to a cluster from inside the first
// delivery that names the cluster lost.
type lostResubmitter struct {
	*testApp
	sess *Session
	cid  view.ClusterID
	id   request.ID
	err  error
}

func (a *lostResubmitter) OnViews(np, p view.View) {
	a.testApp.OnViews(np, p)
	if f, named := np.Lookup(a.cid); named && f.IsZero() && a.id == 0 && a.err == nil {
		a.id, a.err = a.sess.Request(rms.RequestSpec{Cluster: a.cid, N: 1, Duration: 1e6, Type: request.NonPreempt})
	}
}

func TestMigrateThenCrashRequeueReplaysOnNewOwner(t *testing.T) {
	e, f := newMigrateFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	id, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 2, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)

	if _, err := f.MigrateCluster(cC, 1); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)

	// The migrated request now lives on shard 1: crash it, and the request
	// requeues and replays under the same federated ID.
	rep := f.CrashShard(1)
	if rep.Requeued != 1 {
		t.Fatalf("crash requeued %d, want 1 (the migrated request)", rep.Requeued)
	}
	mustCheck(t, f)
	rrep := f.RestartShard(1)
	if rrep.Replayed != 1 {
		t.Fatalf("restart replayed %d, want 1", rrep.Replayed)
	}
	e.Run(e.Now() + 3)
	restarted := 0
	for _, st := range app.starts {
		if st.id == id {
			restarted++
		}
	}
	if restarted != 2 {
		t.Fatalf("request %d started %d times, want 2 (original + replay)", id, restarted)
	}
	if err := sess.Done(id, nil); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, f)
}

// TestStaleDonorPushIsStripped delivers, after a migration, a push the donor
// computed before the detach (under clock.RealClock its delivery can trail
// the migration): the cluster it still names must keep the new owner's
// profile, the rest of the push must get through, and the pushed maps must
// stay untouched. Once the cluster moves back, its old donor's pushes name
// it again and count.
func TestStaleDonorPushIsStripped(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cC, N: 3, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	push := func(shard int, seg view.View) {
		before := seg.Clone()
		sess.handlers[shard].OnViews(seg, seg)
		if !maps.Equal(seg, before) {
			t.Fatalf("forwarding modified the pushed segment: %v, was %v", seg, before)
		}
	}
	free := func(cid view.ClusterID) int {
		np, _ := app.heldViews(t)
		return np.Get(cid).Value(e.Now())
	}
	hops := []struct {
		from, to int
		other    view.ClusterID // a cluster the donor keeps
	}{{0, 1, cA}, {1, 0, cB}}
	for _, hop := range hops {
		if _, err := f.MigrateCluster(cC, hop.to); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 3)
		if got := free(cC); got != 5 {
			t.Fatalf("after the move to shard %d gamma holds %d free nodes, want 5", hop.to, got)
		}
		push(hop.from, view.View{cC: stepfunc.Constant(1), hop.other: stepfunc.Constant(2)})
		if got := free(cC); got != 5 {
			t.Fatalf("a stale push of shard %d set gamma to %d free nodes, want 5", hop.from, got)
		}
		if got := free(hop.other); got != 2 {
			t.Fatalf("the stale push's other cluster holds %d, want 2", got)
		}
		push(hop.to, view.View{cC: stepfunc.Constant(4)})
		if got := free(cC); got != 4 {
			t.Fatalf("a push of gamma's owner, shard %d, set %d free nodes, want 4", hop.to, got)
		}
	}
}

// TestCrashedShardPushIsDropped delivers a push that shard 0 computed before
// it crashed (under clock.RealClock its delivery can trail the crash's zero
// segment) through the handler of the dead admission, once while the shard
// is down and once after its restart: the shard's clusters must stay zero
// at the application until the restarted shard pushes.
func TestCrashedShardPushIsDropped(t *testing.T) {
	e, f := newMigrateFederation(t, RequeueOnCrash)
	app := &testApp{}
	sess := f.Connect(app)
	e.Run(3)
	stale := sess.handlers[0]
	lost := func(when string) {
		t.Helper()
		np, p := app.heldViews(t)
		for _, cid := range []view.ClusterID{cA, cC} {
			if np.Get(cid).Value(e.Now()) != 0 || p.Get(cid).Value(e.Now()) != 0 {
				t.Fatalf("%s: crashed shard's cluster %s reads %v / %v, want zero", when, cid, np[cid], p[cid])
			}
		}
		if got := np.Get(cB).Value(e.Now()); got != 8 {
			t.Fatalf("%s: surviving cluster beta holds %d free nodes, want 8", when, got)
		}
	}
	f.CrashShard(0)
	seg := view.View{cA: stepfunc.Constant(8), cC: stepfunc.Constant(8)}
	stale.OnViews(seg, seg)
	lost("after the crash")
	f.RestartShard(0)
	if sess.handlers[0] == stale {
		t.Fatal("the restart kept the dead admission's handler")
	}
	stale.OnViews(seg, seg)
	lost("after the restart")
	e.Run(e.Now() + 3)
	np, _ := app.heldViews(t)
	if got := np.Get(cA).Value(e.Now()); got != 8 {
		t.Fatalf("after the restarted shard's round alpha holds %d free nodes, want 8", got)
	}
}

// slowViews is an application whose view handler takes two rounds: it steps
// the engine, so the rounds that fall due during a delivery push before it
// returns.
type slowViews struct {
	inertApp
	e *sim.Engine
}

func (v slowViews) OnViews(_, _ view.View) { v.e.Run(v.e.Now() + 2) }

// TestMigrationKeepsClusterVisibleMidDelivery ping-pongs an idle cluster
// while the delivery MigrateCluster makes to a slow application steps the
// clock, so the target's first round pushes to the sessions before
// MigrateCluster returns — as it can under clock.RealClock, where the round
// runs on a timer goroutine. The application connected after the slow one
// must then hold the cluster at full capacity: a zero segment delivered
// after that push would hide the cluster until its views change.
func TestMigrationKeepsClusterVisibleMidDelivery(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	f.Connect(slowViews{e: e})
	app := &testApp{}
	f.Connect(app)
	for i := 0; i < 4; i++ {
		e.Run(e.Now() + 5) // both shards idle: the target's round is due at once
		if _, err := f.MigrateCluster(cC, 1-i%2); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 5)
		np, _ := app.heldViews(t)
		if got := np.Get(cC).Value(e.Now()); got != 8 {
			t.Fatalf("migration %d: the application holds %d free nodes of gamma, want 8", i+1, got)
		}
	}
	mustCheck(t, f)
}

// TestRealClockMigrationStorm ping-pongs a cluster between two shards back
// to back under clock.RealClock while one session runs request/done pairs on
// it, every other one for a request co-allocated with the one before it. A
// call that reaches a shard the cluster, or the parent with its cluster, has
// just left waits the migration out and is retried once: none may fail for
// the live cluster.
func TestRealClockMigrationStorm(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 core for a concurrent migrator")
	}
	f := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 16, "c01": 16, "c02": 16, "c03": 16},
		Shards:          2,
		ReschedInterval: 0.001,
		GracePeriod:     1e18,
		Clock:           clock.NewRealClock(),
	})
	stop, stopped := make(chan struct{}), make(chan struct{})
	migrations := 0
	go func() {
		defer close(stopped)
		for to := 1; ; to = 1 - to {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.MigrateCluster("c00", to); err != nil {
				t.Error(err)
				return
			}
			migrations++
		}
	}()
	sess := f.Connect(inertApp{})
	const pairs = 2000
	var failed []error
	spec := rms.RequestSpec{Cluster: "c00", N: 1, Duration: math.Inf(1), Type: request.Preempt}
	for i := 0; i < pairs/2; i++ {
		parent, err := sess.Request(spec)
		if err != nil {
			failed = append(failed, err, err) // the child's pair fails with it
			continue
		}
		child := spec
		child.RelatedHow, child.RelatedTo = request.Coalloc, parent
		id, err := sess.Request(child)
		if err == nil {
			err = sess.Done(id, nil)
		}
		if err != nil {
			failed = append(failed, err)
		}
		if err := sess.Done(parent, nil); err != nil {
			failed = append(failed, err)
		}
	}
	close(stop)
	<-stopped
	if len(failed) > 0 {
		t.Errorf("%d of %d request/done pairs failed during %d migrations; first: %v", len(failed), pairs, migrations, failed[0])
	}
	// A shard's round delivers with no lock held, so a reap can still be on
	// its way to the session's table: check the topology without it.
	sess.Disconnect()
	mustCheck(t, f)
}

// TestRacedRequestErrors pins which failed request() a migration may have
// raced, and the cluster whose turn its one retry takes: the shard did not
// know the cluster, or did not find a parent the session has a record of
// (the parent's cluster), or no longer owns the cluster, whatever it said.
func TestRacedRequestErrors(t *testing.T) {
	_, f := newMigrateFederation(t, KillOnCrash)
	sess := f.Connect(&testApp{})
	parent, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	spec := rms.RequestSpec{Cluster: cA, N: 1, Duration: 1e6, Type: request.NonPreempt} // alpha: shard 0
	child, orphan, stray := spec, spec, spec
	stray.Cluster = "delta"
	child.RelatedHow, child.RelatedTo = request.Coalloc, parent
	orphan.RelatedHow, orphan.RelatedTo = request.Coalloc, parent+100
	notFound := func(id request.ID) error {
		return &rms.RequestError{ID: id, Related: true, Node: -1, Reason: rms.ReasonNotFound}
	}
	down := errors.New("federation: shard 1 is down")
	for _, tc := range []struct {
		name  string
		spec  rms.RequestSpec
		shard int
		err   error
		want  view.ClusterID // "" when not raced
	}{
		{"accepted", spec, 0, nil, ""},
		{"unknown to the federation", stray, -1, errors.New(`rms: unknown cluster "delta"`), ""},
		{"unknown to the shard", spec, 0, fmt.Errorf("%w %q", rms.ErrUnknownCluster, cA), cA},
		{"parent not found", child, 0, notFound(parent), cB},
		{"parent without a record", orphan, 0, notFound(orphan.RelatedTo), ""},
		{"from a shard that lost the cluster", spec, 1, down, cA},
		{"from the owner", spec, 0, down, ""},
	} {
		if got := sess.racedCluster(tc.spec, tc.shard, tc.err); got != tc.want {
			t.Errorf("%s: racedCluster = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// churnOn issues n short-lived preemptible request/done pairs on a cluster.
func churnOn(t *testing.T, e *sim.Engine, sess *Session, cid view.ClusterID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 1, Duration: math.Inf(1), Type: request.Preempt})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 0.01)
		if err := sess.Done(id, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRebalancerMovesHotCluster(t *testing.T) {
	run := func() (*Rebalancer, *Federator) {
		e, f := newMigrateFederation(t, KillOnCrash)
		sess := f.Connect(&testApp{})
		rb := NewRebalancer(f, RebalancerConfig{Interval: 5})
		rb.Start()
		// Skew shard 0: heavy churn on gamma, some on alpha, none on beta.
		churnOn(t, e, sess, cC, 20)
		churnOn(t, e, sess, cA, 5)
		e.Run(e.Now() + 6) // past the first rebalance check
		return rb, f
	}
	rb, f := run()
	if rb.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1; trace = %v", rb.Migrations(), rb.Trace())
	}
	if s, _ := f.Owner(cC); s != 1 {
		t.Fatalf("hot cluster on shard %d after rebalance, want 1", s)
	}
	mustCheck(t, f)
	if len(rb.Trace()) != 1 || !strings.Contains(rb.Trace()[0], "migrate cluster=gamma from=0 to=1") {
		t.Fatalf("trace = %v", rb.Trace())
	}
	// A balanced federation stays put: subsequent checks migrate nothing.
	rb2, _ := run()
	if !reflect.DeepEqual(rb.Trace(), rb2.Trace()) {
		t.Fatalf("same scenario, different traces:\n%v\n%v", rb.Trace(), rb2.Trace())
	}
	rb.Stop()
}

func TestRebalancerIdleFederationIsNotChurned(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	f.Connect(&testApp{})
	rb := NewRebalancer(f, RebalancerConfig{Interval: 5})
	rb.Start()
	e.Run(60)
	if rb.Migrations() != 0 {
		t.Fatalf("idle federation migrated %d clusters: %v", rb.Migrations(), rb.Trace())
	}
	if rb.checks < 10 {
		t.Fatalf("checks = %d, want ≥10 over 60s at interval 5", rb.checks)
	}
	mustCheck(t, f)
}

func TestRebalancerSkipsDownShards(t *testing.T) {
	e, f := newMigrateFederation(t, RequeueOnCrash)
	sess := f.Connect(&testApp{})
	rb := NewRebalancer(f, RebalancerConfig{Interval: 5})
	churnOn(t, e, sess, cC, 20)
	f.CrashShard(1)
	rb.CheckNow()
	if rb.Migrations() != 0 {
		t.Fatalf("migrated onto a down shard: %v", rb.Trace())
	}
	f.RestartShard(1)
	mustCheck(t, f)
}

// TestRebalancerActsOnSettledSkew: a check scores firm occupancy afresh even
// when nothing changed since the previous one. The first check sees a burst
// of preemptible churn on beta that masks shard 0's firm load (12 ≤ 2 × 10);
// the second, with the burst settled and nothing else moved, sees 10 against
// 0 and moves alpha.
func TestRebalancerActsOnSettledSkew(t *testing.T) {
	e, f := newMigrateFederation(t, KillOnCrash)
	sess := f.Connect(&testApp{})
	rb := NewRebalancer(f, RebalancerConfig{Interval: 5})
	for _, spec := range []rms.RequestSpec{
		{Cluster: cA, N: 6, Duration: math.Inf(1), Type: request.NonPreempt},
		{Cluster: cC, N: 4, Duration: math.Inf(1), Type: request.NonPreempt},
	} {
		if _, err := sess.Request(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(e.Now() + 3)

	rb.CheckNow()
	if rb.Migrations() != 0 {
		t.Fatalf("the burst check migrated: %v", rb.Trace())
	}
	rb.CheckNow()
	if rb.Migrations() != 1 {
		t.Fatalf("the settled check made %d migrations, want 1", rb.Migrations())
	}
	if s, _ := f.Owner(cA); s != 1 {
		t.Fatalf("alpha on shard %d after the settled check, want 1", s)
	}
	mustCheck(t, f)
}
