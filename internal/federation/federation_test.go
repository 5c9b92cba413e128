package federation

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

const (
	cA = view.ClusterID("alpha")
	cB = view.ClusterID("beta")
	cC = view.ClusterID("gamma")
)

// testApp is a programmable rms.AppHandler that records everything.
type testApp struct {
	mu     sync.Mutex
	held   [2]view.View // what the view segments so far add up to
	starts []struct {
		id  request.ID
		ids []int
	}
	killed  string
	onStart func(id request.ID, ids []int)
}

// patch applies a view segment (see rms.AppHandler.OnViews) to a pair an
// application holds: a named profile replaces the held one, a named zero
// removes the cluster, a cluster the segment does not name keeps its
// profile. It returns held, allocated on first use.
func patch(held, seg view.View) view.View {
	if held == nil {
		held = view.New()
	}
	for cid, f := range seg {
		if f.IsZero() {
			delete(held, cid)
		} else {
			held[cid] = f
		}
	}
	return held
}

func (a *testApp) OnViews(np, p view.View) {
	a.mu.Lock()
	a.held = [2]view.View{patch(a.held[0], np), patch(a.held[1], p)}
	a.mu.Unlock()
}

func (a *testApp) OnStart(id request.ID, ids []int) {
	a.mu.Lock()
	a.starts = append(a.starts, struct {
		id  request.ID
		ids []int
	}{id, ids})
	cb := a.onStart
	a.mu.Unlock()
	if cb != nil {
		cb(id, ids)
	}
}

func (a *testApp) OnKill(reason string) {
	a.mu.Lock()
	a.killed = reason
	a.mu.Unlock()
}

// heldViews returns the pair the application holds; callers must not
// modify it.
func (a *testApp) heldViews(t *testing.T) (view.View, view.View) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.held[0] == nil {
		t.Fatal("no views received")
	}
	return a.held[0], a.held[1]
}

func TestPartition(t *testing.T) {
	clusters := map[view.ClusterID]int{cA: 4, cB: 8, cC: 16}
	parts := Partition(clusters, 2)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	// Sorted IDs alpha,beta,gamma round-robin: shard0={alpha,gamma}, shard1={beta}.
	want := []map[view.ClusterID]int{{cA: 4, cC: 16}, {cB: 8}}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("parts = %v, want %v", parts, want)
	}
	// Clamping: more shards than clusters, and non-positive counts.
	if got := len(Partition(clusters, 10)); got != 3 {
		t.Errorf("over-sharded partition has %d shards, want 3", got)
	}
	if got := len(Partition(clusters, 0)); got != 1 {
		t.Errorf("0-shard partition has %d shards, want 1", got)
	}
	if Partition(nil, 3) != nil {
		t.Error("empty cluster set should partition to nil")
	}
}

func newTestFederation(shards int) (*sim.Engine, *Federator) {
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8, cC: 8},
		Shards:          shards,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
	})
	return e, f
}

// TestViewSegmentsSpanAllShards: every shard pushes a segment naming the
// clusters it owns, so what the application holds spans all of them.
func TestViewSegmentsSpanAllShards(t *testing.T) {
	e, f := newTestFederation(3)
	if f.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", f.NumShards())
	}
	app := &testApp{}
	f.Connect(app)
	e.RunAll()
	np, p := app.heldViews(t)
	for _, cid := range []view.ClusterID{cA, cB, cC} {
		if got := np.Get(cid).Value(0); got != 8 {
			t.Errorf("non-preemptive view of %s = %d, want 8", cid, got)
		}
		if got := p.Get(cid).Value(0); got != 8 {
			t.Errorf("preemptive view of %s = %d, want 8", cid, got)
		}
	}
}

func TestRequestRoutedToOwningShard(t *testing.T) {
	e, f := newTestFederation(3)
	app := &testApp{}
	sess := f.Connect(app)
	if sess.AppID() != 1 {
		t.Errorf("AppID = %d, want 1", sess.AppID())
	}
	idA, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 3, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatalf("federated request IDs collide: %d", idA)
	}
	e.Run(10)
	app.mu.Lock()
	starts := append([]struct {
		id  request.ID
		ids []int
	}(nil), app.starts...)
	app.mu.Unlock()
	if len(starts) != 2 {
		t.Fatalf("starts = %v, want 2", starts)
	}
	got := map[request.ID]int{}
	for _, st := range starts {
		got[st.id] = len(st.ids)
	}
	if got[idA] != 2 || got[idB] != 3 {
		t.Errorf("started node counts by federated ID = %v, want %d:2 %d:3", got, idA, idB)
	}
	// The allocation landed on the owning shards.
	shardA, _ := f.Owner(cA)
	shardB, _ := f.Owner(cB)
	if shardA == shardB {
		t.Fatalf("test expects alpha and beta on different shards")
	}
}

func TestUnknownClusterAndRequestErrors(t *testing.T) {
	e, f := newTestFederation(2)
	sess := f.Connect(&testApp{})
	e.Run(2)
	if _, err := sess.Request(rms.RequestSpec{Cluster: "nope", N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("unknown cluster should error")
	}
	if err := sess.Done(999, nil); err == nil {
		t.Error("unknown request ID should error")
	}
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 1, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: 999}); err == nil {
		t.Error("dangling RelatedTo should error")
	}
}

// TestCrossShardRelationAccepted: historically a NEXT/COALLOC relation
// crossing shards was rejected outright; the two-phase reservation
// coordinator now accepts it, holds capacity on the child's shard, and
// commits once the legs align.
func TestCrossShardRelationAccepted(t *testing.T) {
	e, f := newTestFederation(3)
	app := &testApp{}
	sess := f.Connect(app)
	id, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: id})
	if err != nil {
		t.Fatalf("cross-shard NEXT relation = %v, want acceptance via reservation", err)
	}
	// Same-shard relations still work.
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: id}); err != nil {
		t.Fatalf("same-shard NEXT relation: %v", err)
	}
	e.Run(40)
	app.mu.Lock()
	started := map[request.ID]bool{}
	for _, st := range app.starts {
		started[st.id] = true
	}
	app.mu.Unlock()
	if len(started) != 3 {
		t.Fatalf("started = %v, want all 3 requests (gang child committed and run)", started)
	}
	if !started[child] {
		t.Fatalf("cross-shard gang child %d never started; starts = %v", child, started)
	}
	mustCheck(t, f)
}

func TestDoneReleasesOnOwningShard(t *testing.T) {
	e, f := newTestFederation(3)
	app := &testApp{}
	sess := f.Connect(app)
	id, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 4, Duration: math.Inf(1), Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v, want 1", app.starts)
	}
	if err := sess.Done(id, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	// All 8 beta nodes are available again: a second app can take them.
	app2 := &testApp{}
	sess2 := f.Connect(app2)
	if _, err := sess2.Request(rms.RequestSpec{Cluster: cB, N: 8, Duration: 10, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	if len(app2.starts) != 1 || len(app2.starts[0].ids) != 8 {
		t.Fatalf("second app starts = %v, want one 8-node start", app2.starts)
	}
}

func TestDisconnectTearsDownAllShards(t *testing.T) {
	e, f := newTestFederation(3)
	sess := f.Connect(&testApp{})
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	sess.Disconnect()
	e.Run(4)
	for i := 0; i < f.NumShards(); i++ {
		if n := len(f.Shard(i).Scheduler().Apps()); n != 0 {
			t.Errorf("shard %d still has %d apps after Disconnect", i, n)
		}
	}
	if _, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("request on a disconnected session should error")
	}
}

func TestShardKillPropagates(t *testing.T) {
	e := sim.NewEngine()
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8},
		Shards:          2,
		ReschedInterval: 1,
		GracePeriod:     5,
		Clock:           clock.SimClock{E: e},
	})
	// A well-behaved app holding resources on the other shard.
	bystander := &testApp{}
	bsess := f.Connect(bystander)
	if _, err := bsess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}

	// The stealer grabs preemptible nodes on shard A and never releases
	// them when a competitor shrinks its grant (§A.6).
	stealer := &testApp{}
	ssess := f.Connect(stealer)
	if _, err := ssess.Request(rms.RequestSpec{Cluster: cA, N: 8, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(stealer.starts) != 1 {
		t.Fatalf("stealer starts = %v, want 1", stealer.starts)
	}
	// A competitor's non-preemptible request shrinks the stealer's grant;
	// the stealer ignores the new views and keeps all 8 nodes.
	comp := &testApp{}
	csess := f.Connect(comp)
	if _, err := csess.Request(rms.RequestSpec{Cluster: cA, N: 4, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(30)

	stealer.mu.Lock()
	killed := stealer.killed
	stealer.mu.Unlock()
	if killed == "" {
		t.Fatal("stealer was not killed")
	}
	// The kill tore the stealer down on BOTH shards.
	for i := 0; i < f.NumShards(); i++ {
		for _, app := range f.Shard(i).Scheduler().Apps() {
			if app.ID == ssess.AppID() {
				t.Errorf("killed app %d still registered on shard %d", app.ID, i)
			}
		}
	}
	if _, err := ssess.Request(rms.RequestSpec{Cluster: cB, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("request on a killed session should error")
	}
	// The bystander survived.
	bystander.mu.Lock()
	bkilled := bystander.killed
	bystander.mu.Unlock()
	if bkilled != "" {
		t.Errorf("bystander was killed: %s", bkilled)
	}
}

func TestPerShardMetricsAggregate(t *testing.T) {
	e := sim.NewEngine()
	var recs []*metrics.Recorder
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 8},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Metrics: func(int) *metrics.Recorder {
			r := metrics.NewRecorder()
			recs = append(recs, r)
			return r
		},
	})
	if len(recs) != 2 {
		t.Fatalf("metrics factory called %d times, want 2", len(recs))
	}
	sess := f.Connect(&testApp{})
	idA, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 3, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	_ = idA
	_ = idB
	e.Run(200)
	agg := metrics.NewAggregate(recs...)
	got := agg.Area(sess.AppID(), 200)
	want := 2*100.0 + 3*100.0
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("aggregated area = %v, want %v", got, want)
	}
}

// TestConcurrentRealClock exercises the real-clock path: shards run
// concurrently behind their own locks while many sessions issue
// request/done cycles in parallel. Run with -race.
func TestConcurrentRealClock(t *testing.T) {
	f := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 64, cB: 64, cC: 64},
		Shards:          3,
		ReschedInterval: 0.001,
		Clock:           clock.NewRealClock(),
	})
	clusters := []view.ClusterID{cA, cB, cC}
	const sessions = 6
	const opsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		app := &testApp{}
		sess := f.Connect(app)
		cid := clusters[i%len(clusters)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				id, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 1, Duration: math.Inf(1), Type: request.Preempt})
				if err != nil {
					errs <- fmt.Errorf("request: %w", err)
					return
				}
				if err := sess.Done(id, nil); err != nil {
					errs <- fmt.Errorf("done: %w", err)
					return
				}
			}
			sess.Disconnect()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
