package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// buildBenchFleet constructs the canonical scheduler fleet: n applications
// (50 is the canonical size) on one cluster with room for all of them, each
// with a started pre-allocation, a running non-preemptible request, a
// pending NEXT update and a started preemptible request.
func buildBenchFleet(n int) *Scheduler {
	const cluster = view.ClusterID("c0")
	s := NewScheduler(map[view.ClusterID]int{cluster: 4096 * (n + 49) / 50})
	reqID := request.ID(1)
	mk := func(app *AppState, n int, dur float64, typ request.Type, how request.Relation, parent *request.Request) *request.Request {
		r := request.New(reqID, app.ID, cluster, n, dur, typ, how, parent)
		reqID++
		app.SetFor(typ).Add(r)
		return r
	}
	for i := 0; i < n; i++ {
		a := s.AddApp(i+1, float64(i))
		pa := mk(a, 16, 1e6, request.PreAlloc, request.Free, nil)
		pa.StartedAt = 0
		np := mk(a, 8, 1e5, request.NonPreempt, request.Coalloc, pa)
		np.StartedAt = 0
		mk(a, 12, 1e5, request.NonPreempt, request.Next, np)
		p := mk(a, 4, math.Inf(1), request.Preempt, request.Free, nil)
		p.StartedAt = 0
	}
	return s
}

// TestSteadyRoundAllocs pins the allocation budget of the fully cached
// steady state: with the standing fleet unchanged between rounds, a round
// allocates nothing — with observability enabled but idle, i.e. a live
// registry recording per round exactly what rms.Server.runLocked records
// (round duration, dirty-artifact count, one round event). Recording must
// stay off the allocation path, and the views stay on the applications.
// The budget is the same under a non-Stable() policy whose answer does not
// change, however many applications there are: the CBF chain's key
// alternates between two buffers, reused like orderBuf.
func TestSteadyRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		n      int
		policy SchedulingPolicy
	}{{50, FIFOPolicy{}}, {50, dynamicFIFO{}}, {200, dynamicFIFO{}}} {
		t.Run(fmt.Sprintf("%s/%d", tc.policy.Name(), tc.n), func(t *testing.T) {
			s := buildBenchFleet(tc.n)
			s.SetSchedulingPolicy(tc.policy)
			reg := obs.NewRegistry()
			hRound := reg.Hist("rms.round_seconds")
			hDirty := reg.Hist("rms.round_dirty_artifacts")
			var prevRecomputed int64
			now := 0.0
			round := func() {
				t0 := time.Now()
				if toStart := s.Schedule(now); len(toStart) != 0 {
					t.Fatalf("a steady round starts %d requests", len(toStart))
				}
				st := s.Stats()
				hRound.Record(time.Since(t0).Seconds())
				hDirty.Record(float64(st.ArtifactsRecomputed - prevRecomputed))
				prevRecomputed = st.ArtifactsRecomputed
				reg.Event(obs.Event{Time: now, Type: obs.EvRound})
				now++
			}
			round() // warm the caches
			if got := testing.AllocsPerRun(200, round); got > 0 {
				t.Fatalf("steady cached round allocates %.1f times, want 0", got)
			}
			for _, a := range s.Apps() {
				if np, p := a.Views(); np == nil || p == nil {
					t.Fatalf("application %d lost its views", a.ID)
				}
			}
		})
	}
}

// TestArrivalRoundAllocsFlat pins what an arrival costs behind a standing
// queue: k applications wait with pending pre-allocations behind a started
// one that fills the cluster, so their CBF steps and the chain hold from
// round to round, and each measured round connects one more application
// with one pending request. That round recomputes only the newcomer's step,
// which reads the running availability at the end of the queue: the pass
// resumes from the map the last round built there instead of subtracting
// the whole queue from a fresh clone of the base fold, so its allocations
// do not grow with k.
func TestArrivalRoundAllocsFlat(t *testing.T) {
	const cluster = view.ClusterID("c0")
	arrival := func(k int) float64 {
		s := NewScheduler(map[view.ClusterID]int{cluster: 256})
		reqID := request.ID(1)
		add := func(id int) {
			a := s.AddApp(id, float64(id))
			a.PA.Add(request.New(reqID, id, cluster, 1, 10, request.PreAlloc, request.Free, nil))
			reqID++
		}
		block := s.AddApp(0, 0)
		r := request.New(reqID, 0, cluster, 256, 1000, request.PreAlloc, request.Free, nil)
		r.StartedAt = 0
		block.PA.Add(r)
		reqID++
		for id := 1; id <= k; id++ {
			add(id)
		}
		s.Schedule(1)
		s.Schedule(1) // the chain is warm
		next := k + 1
		return testing.AllocsPerRun(50, func() {
			add(next)
			next++
			s.Schedule(1)
		})
	}
	if small, large := arrival(16), arrival(64); math.Abs(large-small) > 2 {
		t.Fatalf("an arrival round allocates %.1f times behind 16 queued applications and %.1f behind 64, want equal (±2)", small, large)
	}
}

// TestSettledCBFStepAllocs pins what a settled application's recomputed CBF
// step allocates: the view it hands out and the occupancies it keeps, not
// its pre-allocated space or the availability its ¬P requests are fitted
// into, which never leave the step (the second is built only at pending
// requests' clusters, and a settled application has none). The application
// holds a started pre-allocation on c0 with a started request inside it;
// the base fold changes on c1, which it does not hold, so its step is
// recomputed.
func TestSettledCBFStepAllocs(t *testing.T) {
	c0, c1 := view.ClusterID("c0"), view.ClusterID("c1")
	s := NewScheduler(map[view.ClusterID]int{c0: 64, c1: 64})
	a := s.AddApp(1, 0)
	pa := request.New(1, 1, c0, 16, 1e6, request.PreAlloc, request.Free, nil)
	pa.StartedAt = 0
	a.PA.Add(pa)
	np := request.New(2, 1, c0, 8, 1e5, request.NonPreempt, request.Coalloc, pa)
	np.StartedAt = 0
	a.NP.Add(np)
	b := s.AddApp(2, 1)
	s.Schedule(0)
	r := request.New(3, 2, c1, 32, 100, request.NonPreempt, request.Free, nil)
	r.StartedAt, r.Wrapped = 1, true // no pre-allocation: it takes free space
	b.NP.Add(r)
	s.MarkAppDirty(2)
	before := s.Stats().CBFRecomputed
	out := gather(s, s.Schedule(1))
	if got := s.Stats().CBFRecomputed - before; got != 2 {
		t.Fatalf("%d steps recomputed after the fold changed on c1, want both", got)
	}
	if f := out.NonPreemptViews[1].Get(c1); !f.Equal(s.baseNP.Get(c1)) || f.Value(1) != 32 {
		t.Fatalf("the settled application sees c1 as %v, the base fold holds %v", f, s.baseNP.Get(c1))
	}
	// Its own pre-allocation plus the free space (64 − 16).
	if got := out.NonPreemptViews[1].Get(c0).Value(1); got != 64 {
		t.Fatalf("the settled application sees %d nodes on c0, want 64", got)
	}
	allocs := testing.AllocsPerRun(100, func() { s.cbfStep(a, s.baseNP, 1) })
	// 13 on an amd64 build with go1.24; building both views in fresh maps,
	// as the step did before, took 19.
	if allocs > 13 {
		t.Fatalf("a settled application's recomputed step allocates %.1f times, want ≤ 13", allocs)
	}
}
