package federation

import (
	"fmt"
	"math"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// viewRecorder retains every delivered view segment, so a test can check
// that no delivered map is written to afterwards, and what they add up to.
type viewRecorder struct {
	nps, ps []view.View
	held    [2]view.View
}

func (r *viewRecorder) OnViews(np, p view.View) {
	r.nps = append(r.nps, np)
	r.ps = append(r.ps, p)
	r.held = [2]view.View{patch(r.held[0], np), patch(r.held[1], p)}
}
func (r *viewRecorder) OnStart(request.ID, []int) {}
func (r *viewRecorder) OnKill(string)             {}

func epochFed(t *testing.T, e *sim.Engine, shards int) (*Federator, []view.ClusterID) {
	t.Helper()
	clusters := map[view.ClusterID]int{}
	cids := make([]view.ClusterID, 4)
	for i := range cids {
		cids[i] = view.ClusterID(fmt.Sprintf("c%d", i))
		clusters[cids[i]] = 8
	}
	return New(Config{
		Clusters:        clusters,
		Shards:          shards,
		ReschedInterval: 1,
		GracePeriod:     1e18,
		Clock:           clock.SimClock{E: e},
	}), cids
}

// TestSegmentsNameOnlyTheirShard drives localized churn on one shard and
// checks that the application is sent only that shard's segments, each
// naming exactly the shard's clusters, while what it holds still spans
// every cluster.
func TestSegmentsNameOnlyTheirShard(t *testing.T) {
	e := sim.NewEngine()
	fed, cids := epochFed(t, e, 4)
	// Two standing sessions on the churn cluster: every arrival changes the
	// preemptible shares there, so its shard really pushes each round.
	for i := 0; i < 2; i++ {
		standing := fed.Connect(&viewRecorder{})
		if _, err := standing.Request(rms.RequestSpec{Cluster: cids[0], N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
			t.Fatal(err)
		}
	}
	rec := &viewRecorder{}
	sess := fed.Connect(rec)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cids[0], N: 2, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	warm := len(rec.nps)

	// Steady churn on cluster 0 only (short firm allocations, so the
	// availability really changes).
	for i := 0; i < 8; i++ {
		if _, err := sess.Request(rms.RequestSpec{Cluster: cids[0], N: 1, Duration: 0.4, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 1)
	}
	if len(rec.nps) == warm {
		t.Fatal("churn delivered no views; the scenario is broken")
	}
	shard, _ := fed.Owner(cids[0])
	owned := fed.Shard(shard).Clusters()
	for i := warm; i < len(rec.nps); i++ {
		for _, seg := range []view.View{rec.nps[i], rec.ps[i]} {
			if len(seg) != len(owned) {
				t.Fatalf("segment %d names %v, want exactly shard %d's clusters %v", i, seg, shard, owned)
			}
			for cid := range seg {
				if _, ok := owned[cid]; !ok {
					t.Fatalf("segment %d names %v, want exactly shard %d's clusters %v", i, seg, shard, owned)
				}
			}
		}
	}
	for _, cid := range cids {
		if rec.held[0].Get(cid).IsZero() {
			t.Errorf("the application holds no availability on %s: %v", cid, rec.held[0])
		}
	}
}

// TestMergeCacheDeliveredViewsImmutable checks the loan contract: a view
// segment delivered to the application never changes afterwards, however
// the shards and the federation go on pushing.
func TestMergeCacheDeliveredViewsImmutable(t *testing.T) {
	e := sim.NewEngine()
	fed, cids := epochFed(t, e, 4)
	rec := &viewRecorder{}
	sess := fed.Connect(rec)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cids[0], N: 2, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)

	// Snapshot every delivered view (shallow copy of the map, profiles are
	// immutable), then churn across clusters, crash and restart a shard, and
	// verify the originals.
	type snap struct {
		v    view.View
		copy view.View
	}
	var snaps []snap
	for _, v := range append(append([]view.View{}, rec.nps...), rec.ps...) {
		snaps = append(snaps, snap{v, v.Clone()})
	}
	for i := 0; i < 12; i++ {
		if _, err := sess.Request(rms.RequestSpec{
			Cluster: cids[i%len(cids)], N: 1, Duration: 0.4, Type: request.Preempt,
		}); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 1)
	}
	fed.CrashShard(1)
	fed.RestartShard(1)
	e.Run(e.Now() + 2)
	for i, sn := range snaps {
		if len(sn.v) != len(sn.copy) {
			t.Fatalf("delivered view %d mutated after delivery: %d clusters, had %d", i, len(sn.v), len(sn.copy))
		}
		for cid, f := range sn.copy {
			if sn.v[cid] != f {
				t.Fatalf("delivered view %d mutated after delivery on cluster %s", i, cid)
			}
		}
	}
}

// TestSegmentsFollowCrashAndMigration pins the views an application holds
// across topology transitions: a crash takes the dead shard's clusters away
// at once, the restarted shard's rounds bring them back, and a migrated
// cluster is gone until its new owner's round names it again.
func TestSegmentsFollowCrashAndMigration(t *testing.T) {
	e := sim.NewEngine()
	fed, cids := epochFed(t, e, 2)
	rec := &viewRecorder{}
	sess := fed.Connect(rec)
	if _, err := sess.Request(rms.RequestSpec{Cluster: cids[0], N: 2, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)

	fed.CrashShard(1)
	sh1 := fed.Shard(1).Clusters()
	for cid := range rec.held[0] {
		if _, dead := sh1[cid]; dead {
			t.Fatalf("crashed shard's cluster %s still held", cid)
		}
	}
	fed.RestartShard(1)
	e.Run(e.Now() + 3)
	for cid := range sh1 {
		if _, ok := rec.held[0][cid]; !ok {
			t.Fatalf("restarted shard's cluster %s not held", cid)
		}
	}

	// Migrate an idle cluster from shard 0 to shard 1.
	var donorCluster view.ClusterID
	for cid := range fed.Shard(0).Clusters() {
		if cid != cids[0] { // keep the busy cluster put; move an idle one
			donorCluster = cid
			break
		}
	}
	if _, err := fed.MigrateCluster(donorCluster, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.held[0][donorCluster]; ok {
		t.Fatalf("migrated cluster %s still held before its new owner's round", donorCluster)
	}
	e.Run(e.Now() + 3)
	for _, v := range rec.held {
		for cid := range v {
			if _, ok := fed.Owner(cid); !ok {
				t.Fatalf("the application holds unknown cluster %s", cid)
			}
		}
	}
	if got := rec.held[0].Get(donorCluster).Value(e.Now()); got != 8 {
		t.Fatalf("migrated cluster %s holds %d free nodes after its new owner's round, want 8", donorCluster, got)
	}

	// Away and straight back, with no round of its owner in between: the
	// owner's next round must name the cluster again although its profile
	// is the one the owner pushed last.
	for _, to := range []int{0, 1} {
		if _, err := fed.MigrateCluster(donorCluster, to); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(e.Now() + 3)
	if got := rec.held[0].Get(donorCluster).Value(e.Now()); got != 8 {
		t.Fatalf("cluster %s migrated away and back holds %d free nodes, want 8", donorCluster, got)
	}
	if err := fed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
