package federation

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// fanoutPoint is one measurement of the fan-out harness.
type fanoutPoint struct {
	kbPerStart     float64 // bytes allocated per churn start, in KB
	pushesPerStart float64 // OnViews calls to the standing sessions per start
}

// countingApp counts the views pushed to it; started records churn starts.
type countingApp struct {
	pushes  *int
	started *int
}

func (a countingApp) OnViews(_, _ view.View) { *a.pushes++ }
func (a countingApp) OnStart(request.ID, []int) {
	if a.started != nil {
		*a.started++
	}
}
func (countingApp) OnKill(string) {}

// measureFanout runs the standing-fleet shape of the repository's benchmark
// on a SimClock federation over 32 clusters of 256 nodes per 256 sessions
// (so a larger fleet is not a congested one): every standing
// session holds a pre-allocation, a running non-preemptible request
// COALLOC'd to it, a pending NEXT update of that request and an infinite
// preemptible request, on cluster i mod 32. One churn session asks for one
// node for 0.4 s on a cluster that moves on every 8 operations, and the
// clock runs one rescheduling interval after each. Over ops operations,
// after warm of them, it returns the bytes allocated and the views pushed to
// the standing sessions per churn start.
func measureFanout(t *testing.T, shards, sessions, warm, ops int) fanoutPoint {
	t.Helper()
	const nClusters = 32
	e := sim.NewEngine()
	clusters := make(map[view.ClusterID]int, nClusters)
	cids := make([]view.ClusterID, nClusters)
	for i := range cids {
		cids[i] = view.ClusterID(fmt.Sprintf("c%02d", i))
		clusters[cids[i]] = 256 * max(1, sessions/256)
	}
	fed := New(Config{
		Clusters:        clusters,
		Shards:          shards,
		ReschedInterval: 1,
		GracePeriod:     1e18, // standing sessions never release
		Clock:           clock.SimClock{E: e},
	})
	var pushes, starts int
	for i := 0; i < sessions; i++ {
		sess := fed.Connect(countingApp{pushes: &pushes})
		cid := cids[i%nClusters]
		pa, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 14 + i%5, Duration: 1e9 + float64(i)*1013, Type: request.PreAlloc})
		if err != nil {
			t.Fatal(err)
		}
		np, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 6 + i%4, Duration: 1e8 + float64(i)*997, Type: request.NonPreempt,
			RelatedHow: request.Coalloc, RelatedTo: pa})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 9 + i%4, Duration: 1e8 + float64(i)*991, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: np}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
			t.Fatal(err)
		}
	}
	var churnPushes int
	churn := fed.Connect(countingApp{pushes: &churnPushes, started: &starts})
	e.Run(e.Now() + 5)
	op := func(i int) {
		if _, err := churn.Request(rms.RequestSpec{Cluster: cids[(i/8)%nClusters], N: 1, Duration: 0.4, Type: request.Preempt}); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 1)
	}
	for i := 0; i < warm; i++ {
		op(i)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bytes0, pushes0, starts0 := ms.TotalAlloc, pushes, starts
	for i := warm; i < warm+ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&ms)
	n := float64(starts - starts0)
	if n != float64(ops) {
		t.Fatalf("%d shards, %d sessions: %v starts for %d operations", shards, sessions, n, ops)
	}
	return fanoutPoint{
		kbPerStart:     float64(ms.TotalAlloc-bytes0) / 1024 / n,
		pushesPerStart: float64(pushes-pushes0) / n,
	}
}

// TestStartCostFollowsWhatChanged pins what a churn start costs as the
// standing fleet grows. A start changes one cluster's preemptive shares, so
// each push's preemptive segment names that cluster and sessions shown one
// share are handed one segment, while every session of the changed shard is
// still pushed, once a round. A single RMS over 32 clusters with 256
// sessions allocates at most 100 KB per start; it allocated 506 KB when
// every changed session's preemptive view was rebuilt whole. At 4 shards
// what remains grows with the occupying sessions of the changed cluster —
// the walk's fragments and cuts and their rescheduling, which the sessions'
// views do not add to — and the 1,024-session point stays at most 200 KB
// (260 KB before). The push counts are exact, and the ones whole views gave:
// the simulated clock makes them a function of the scenario.
func TestStartCostFollowsWhatChanged(t *testing.T) {
	single := measureFanout(t, 1, 256, 40, 160)
	small := measureFanout(t, 4, 64, 40, 160)
	large := measureFanout(t, 4, 1024, 40, 160)
	t.Logf("KB/start: 1×256 %.1f, 4×64 %.1f, 4×1024 %.1f; pushes/start %.0f, %.0f, %.0f",
		single.kbPerStart, small.kbPerStart, large.kbPerStart, single.pushesPerStart, small.pushesPerStart, large.pushesPerStart)
	for _, c := range []struct {
		name string
		got  fanoutPoint
		want float64
	}{{"1 shard × 256", single, 256}, {"4 shards × 64", small, 80}, {"4 shards × 1,024", large, 1280}} {
		if c.got.pushesPerStart != c.want {
			t.Errorf("%s sessions: %.2f pushes per start, want %.0f", c.name, c.got.pushesPerStart, c.want)
		}
	}
	if raceEnabled {
		return
	}
	if single.kbPerStart > 100 {
		t.Errorf("1 shard × 256 sessions: %.1f KB per start, want at most 100", single.kbPerStart)
	}
	if large.kbPerStart > 200 {
		t.Errorf("4 shards × 1,024 sessions: %.1f KB per start, want at most 200", large.kbPerStart)
	}
}
