package federation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
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
	// A round on each shard reaps what the pairs finished; CheckInvariants
	// waits for every shard's delivery, so the session's table has taken
	// in every reap when it is compared with the shards.
	for i := 0; i < f.NumShards(); i++ {
		f.Shard(i).ScheduleNow()
	}
	mustCheck(t, f)
}

// orderApp records, per request, what a session has been told, and reports
// what breaks the order the notifications promise: a start after its own
// finish, a repeated start, a finish after its reap or repeated, and a reap
// without a finish or repeated. (A federation reaps without a finish only a
// request it drops; nothing here is dropped.) It signals every start on
// startedCh.
type orderApp struct {
	mu                        sync.Mutex
	started, finished, reaped map[request.ID]bool
	errs                      []string
	startedCh                 chan struct{}
}

func newOrderApp() *orderApp {
	return &orderApp{started: map[request.ID]bool{}, finished: map[request.ID]bool{},
		reaped: map[request.ID]bool{}, startedCh: make(chan struct{}, 1)}
}

func (a *orderApp) failf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Sprintf(format, args...))
}

func (a *orderApp) OnViews(_, _ view.View) {}
func (a *orderApp) OnKill(reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failf("killed: %s", reason)
}

func (a *orderApp) OnStart(id request.ID, _ []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.started[id]:
		a.failf("request %d started twice", id)
	case a.finished[id]:
		a.failf("request %d started after its finish", id)
	}
	a.started[id] = true
	select {
	case a.startedCh <- struct{}{}:
	default:
	}
}

func (a *orderApp) OnRequestFinished(id request.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.finished[id]:
		a.failf("request %d finished twice", id)
	case a.reaped[id]:
		a.failf("request %d finished after its reap", id)
	}
	a.finished[id] = true
}

func (a *orderApp) OnRequestsReaped(ids []request.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range ids {
		switch {
		case a.reaped[id]:
			a.failf("request %d reaped twice", id)
		case !a.finished[id]:
			a.failf("request %d reaped without a finish", id)
		}
		a.reaped[id] = true
	}
}

// awaitStart waits up to d for request id's start.
func (a *orderApp) awaitStart(id request.ID, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		a.mu.Lock()
		started := a.started[id]
		a.mu.Unlock()
		if started {
			return
		}
		select {
		case <-a.startedCh:
		case <-timer.C:
			return
		}
	}
}

// awaitShardStart spins until the shard holding request id has started it,
// or holds it no longer, but for at most a second: a done() right after it
// races the start's delivery.
func awaitShardStart(sess *Session, id request.ID) {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
		sess.mu.Lock()
		sub := sess.subs[sess.reqs[id].shard]
		sess.mu.Unlock()
		if info, err := sub.ScheduleInfo(id); err != nil || info.Started {
			return
		}
	}
}

// TestStormNotificationOrder runs request/done pairs on three sessions while
// a goroutine ping-pongs their cluster between two shards under
// clock.RealClock, every other pair waiting a moment for the start's
// notification and the others only until the shard has started it. Each
// session must hear a start before its finish, a finish before its reap, a
// reap only after a finish, and nothing twice: each shard delivers its
// notifications from one drainer, each session hands them over from one
// outbox, and a migration fences the donor's deliveries before it detaches.
func TestStormNotificationOrder(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 core for a concurrent migrator")
	}
	f := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 16, "c01": 16, "c02": 16, "c03": 16},
		Shards:          2,
		ReschedInterval: 2e-4,
		GracePeriod:     1e18,
		Clock:           clock.NewRealClock(),
	})
	stop, stopped := make(chan struct{}), make(chan struct{})
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
		}
	}()
	const sessions, pairs = 3, 400
	apps := make([]*orderApp, sessions)
	var wg sync.WaitGroup
	for i := range apps {
		app := newOrderApp()
		apps[i] = app
		sess := f.Connect(app)
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := rms.RequestSpec{Cluster: "c00", N: 1, Duration: math.Inf(1), Type: request.NonPreempt}
			for j := 0; j < pairs; j++ {
				id, err := sess.Request(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if j%2 == 0 {
					app.awaitStart(id, 300*time.Microsecond)
				} else {
					awaitShardStart(sess, id)
				}
				if err := sess.Done(id, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-stopped
	for i := 0; i < f.NumShards(); i++ {
		f.Shard(i).ScheduleNow()
	}
	mustCheck(t, f) // waits for every shard's delivery
	for i, app := range apps {
		app.mu.Lock()
		for _, e := range app.errs {
			t.Errorf("session %d: %s", i, e)
		}
		if len(app.reaped) != pairs {
			t.Errorf("session %d: %d of %d requests reaped", i, len(app.reaped), pairs)
		}
		app.mu.Unlock()
	}
}

// blockingStart is an application whose first OnStart tells entered and
// then waits for release before it submits one more request to cid, from
// inside the shard's delivery.
type blockingStart struct {
	inertApp
	sess             *Session
	cid              view.ClusterID
	entered, release chan struct{}
	once             sync.Once
	id               request.ID
	err              error
	submitted        chan struct{}
}

func (a *blockingStart) OnStart(request.ID, []int) {
	a.once.Do(func() {
		close(a.entered)
		<-a.release
		a.id, a.err = a.sess.Request(rms.RequestSpec{Cluster: a.cid, N: 1, Duration: 1e6, Type: request.NonPreempt})
		close(a.submitted)
	})
}

// inDeliveryFence reports whether some goroutine waits in an rms server's
// delivery fence.
func inDeliveryFence() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("rms.(*Server).awaitDeliveryLocked"))
}

// TestRealClockMigrationFenceServesHandler migrates a cluster while a
// handler is inside its donor's delivery, and that handler then submits to
// the migrating cluster once the migration waits in the donor's delivery
// fence. The fence waits while the donor still owns the cluster, so the
// donor serves the submit and the migration completes. A fence taken after
// the detach would deadlock: the donor would refuse the submit, whose retry
// waits out the migration.
func TestRealClockMigrationFenceServesHandler(t *testing.T) {
	f := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 4, "c01": 4, "c02": 4},
		Shards:          2,
		ReschedInterval: 1e-3,
		Clock:           clock.NewRealClock(),
	})
	app := &blockingStart{cid: "c00", entered: make(chan struct{}), release: make(chan struct{}),
		submitted: make(chan struct{})}
	app.sess = f.Connect(app)
	// Deliver the first pushes of both shards now: the start must then reach
	// the application on the donor's own delivery, not on another shard's.
	for i := 0; i < f.NumShards(); i++ {
		f.Shard(i).ScheduleNow()
	}
	mustCheck(t, f) // waits for every shard's delivery
	if _, err := app.sess.Request(rms.RequestSpec{Cluster: "c00", N: 1, Duration: 1e6, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	select {
	case <-app.entered:
	case <-deadline:
		t.Fatal("the request never started")
	}
	var rep MigrationReport
	var err error
	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		rep, err = f.MigrateCluster("c00", 1)
	}()
	released := false
	defer func() {
		if !released {
			close(app.release)
		}
	}()
	for !inDeliveryFence() {
		select {
		case <-migrated:
			t.Fatal("MigrateCluster returned while a delivery of the donor's was in progress")
		case <-deadline:
			t.Fatal("MigrateCluster never waited for the donor's delivery")
		default:
			runtime.Gosched()
		}
	}
	released = true
	close(app.release)
	select {
	case <-migrated:
	case <-deadline:
		t.Fatal("MigrateCluster hangs behind a delivery that submits to the migrating cluster")
	}
	<-app.submitted
	if err != nil {
		t.Fatal(err)
	}
	if app.err != nil {
		t.Fatalf("the submit from inside the delivery: %v", app.err)
	}
	if rep.Requests != 2 {
		t.Errorf("the migration moved %d requests, want the first one and the one submitted mid-delivery", rep.Requests)
	}
	mustCheck(t, f)
}

// finishSubmit is an application whose handler, told that request parent
// finished, tells entered and waits for release before it submits a NEXT
// child of parent to cid, from inside the shard's delivery.
type finishSubmit struct {
	inertApp
	sess             *Session
	cid              view.ClusterID
	parent           request.ID
	entered, release chan struct{}
	err              error
	submitted        chan struct{}
}

func (a *finishSubmit) OnRequestFinished(id request.ID) {
	if id != a.parent {
		return
	}
	close(a.entered)
	<-a.release
	_, a.err = a.sess.Request(rms.RequestSpec{Cluster: a.cid, N: 1, Duration: 1, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: a.parent})
	close(a.submitted)
}

func (a *finishSubmit) OnRequestsReaped([]request.ID) {}

// TestRealClockReapedParentDuringMigrationFence withdraws a pending parent,
// whose finish reaches the application on its donor's delivery with the reap
// still queued behind it, and migrates the parent's cluster meanwhile. Once
// the migration waits in the donor's delivery fence, the handler submits a
// NEXT child of the parent. The donor, which still hosts the cluster, has no
// parent to find: the refusal is genuine and reaches the handler, and the
// migration completes. Waiting out the migration instead would deadlock, as
// the migration waits for this very delivery.
func TestRealClockReapedParentDuringMigrationFence(t *testing.T) {
	f := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 4, "c01": 4, "c02": 4},
		Shards:          2,
		ReschedInterval: 1e-3,
		Clock:           clock.NewRealClock(),
	})
	app := &finishSubmit{cid: "c00", entered: make(chan struct{}), release: make(chan struct{}),
		submitted: make(chan struct{})}
	app.sess = f.Connect(app)
	for i := 0; i < f.NumShards(); i++ {
		f.Shard(i).ScheduleNow()
	}
	mustCheck(t, f) // waits for every shard's delivery
	// Larger than the cluster: it stays pending, so done() withdraws it and
	// reaps it at once.
	parent, err := app.sess.Request(rms.RequestSpec{Cluster: "c00", N: 5, Duration: 1e6, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	app.parent = parent
	withdrawn := make(chan error, 1)
	go func() { withdrawn <- app.sess.Done(parent, nil) }()
	deadline := time.After(10 * time.Second)
	select {
	case <-app.entered:
	case <-deadline:
		t.Fatal("the parent's finish never reached the application")
	}
	var migErr error
	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		_, migErr = f.MigrateCluster("c00", 1)
	}()
	for !inDeliveryFence() {
		select {
		case <-migrated:
			t.Fatal("MigrateCluster returned while a delivery of the donor's was in progress")
		case <-deadline:
			t.Fatal("MigrateCluster never waited for the donor's delivery")
		default:
			runtime.Gosched()
		}
	}
	close(app.release)
	select {
	case <-app.submitted:
	case <-deadline:
		t.Fatal("the handler's submit waits for the migration that waits for the handler")
	}
	var re *rms.RequestError
	if !errors.As(app.err, &re) || !re.Related || re.Reason != rms.ReasonNotFound {
		t.Fatalf("the NEXT child of a withdrawn parent: %v, want its parent not found", app.err)
	}
	select {
	case <-migrated:
	case <-deadline:
		t.Fatal("MigrateCluster never finished")
	}
	if migErr != nil {
		t.Fatal(migErr)
	}
	if err := <-withdrawn; err != nil {
		t.Fatal(err)
	}
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
