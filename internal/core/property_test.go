package core

import (
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// TestPropScheduleNeverOversubscribes drives the pure scheduler with random
// request populations and asserts, at every scheduling round, that the
// total scheduled load never exceeds capacity at any time: sum over all
// scheduled/started pre-allocations and non-preemptible requests of their
// rectangles, plus all preemptible NAllocs, stays within the cluster. This
// is the safety property behind the paper's guarantee semantics.
func TestPropScheduleNeverOversubscribes(t *testing.T) {
	const capacity = 16
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(map[view.ClusterID]int{c0: capacity})
		var reqID request.ID = 1
		now := 0.0

		// A pool of apps; each owns at most one PA chain and one P request.
		type appRef struct {
			st *AppState
			pa *request.Request
			np *request.Request
			p  *request.Request
		}
		var apps []*appRef
		for i := 0; i < 4; i++ {
			apps = append(apps, &appRef{st: s.AddApp(i+1, float64(i))})
		}

		for round := 0; round < 60; round++ {
			now += rng.Float64() * 20
			a := apps[rng.Intn(len(apps))]
			s.MarkAppDirty(a.st.ID) // the driver mutates request state below
			switch rng.Intn(4) {
			case 0:
				if a.pa == nil {
					n := 1 + rng.Intn(8)
					a.pa = request.New(reqID, a.st.ID, c0, n, 50+rng.Float64()*150, request.PreAlloc, request.Free, nil)
					reqID++
					a.st.PA.Add(a.pa)
					a.np = request.New(reqID, a.st.ID, c0, 1+rng.Intn(n), 40+rng.Float64()*100, request.NonPreempt, request.Coalloc, a.pa)
					reqID++
					a.st.NP.Add(a.np)
				}
			case 1:
				if a.p == nil {
					a.p = request.New(reqID, a.st.ID, c0, 1+rng.Intn(10), math.Inf(1), request.Preempt, request.Free, nil)
					reqID++
					a.st.P.Add(a.p)
				}
			case 2: // finish chains that ended
				if a.pa != nil && a.pa.Ended(now) {
					a.st.PA.GC(now, nil)
					a.st.NP.GC(now, nil)
					a.pa, a.np = nil, nil
				}
			case 3:
				if a.p != nil && rng.Intn(2) == 0 {
					a.p.Finished = true
					a.st.P.GC(now, nil)
					a.p = nil
				}
			}

			out := gather(s, s.Schedule(now))

			// Start whatever the scheduler says (idealized RMS: IDs exist
			// whenever NAlloc fits, which is what we are verifying).
			for _, r := range out.ToStart {
				r.StartedAt = now
				s.MarkAppDirty(r.AppID)
			}

			// Reconstruct per-app reservation and allocation profiles.
			// Three safety properties follow:
			//   (a) Σ pre-allocations(T) ≤ capacity for all T —
			//       reservations are promises and must always fit;
			//   (b) Σ non-preemptible(T) ≤ capacity for all T —
			//       these allocations are never revoked;
			//   (c) Σ_app [PA(T) + max(¬P(T) − PA(T), 0)] ≤ capacity —
			//       each application's guaranteed demand is its
			//       reservation plus whatever it holds beyond it (exact
			//       for this driver, where every ¬P chain hangs off the
			//       application's single PA);
			//   (d) at the current instant, all non-preemptible holdings
			//       plus the preemptible grants fit (grants are
			//       instantaneous entitlements; the RMS revokes them
			//       before any future guaranteed allocation starts).
			paSum := stepfunc.Zero()
			npSum := stepfunc.Zero()
			combined := stepfunc.Zero()
			physNow := 0
			live := func(r *request.Request) bool {
				if math.IsInf(r.ScheduledAt, 1) {
					return false
				}
				if !r.Started() && r.ScheduledAt < now {
					return false // stale pending schedule, will be redone
				}
				return true
			}
			for _, st := range s.Apps() {
				appPA := stepfunc.Zero()
				appNP := stepfunc.Zero()
				for _, r := range st.Requests() {
					if !live(r) {
						continue
					}
					switch r.Type {
					case request.PreAlloc:
						appPA = appPA.AddRect(r.ScheduledAt, r.Duration, r.N)
					case request.NonPreempt:
						appNP = appNP.AddRect(r.ScheduledAt, r.Duration, r.N)
						if r.ScheduledAt <= now && now < r.End() {
							physNow += r.N
						}
					case request.Preempt:
						if r.ScheduledAt <= now && now < r.End() {
							physNow += r.NAlloc
						}
					}
				}
				paSum = paSum.Add(appPA)
				npSum = npSum.Add(appNP)
				combined = combined.Add(appPA.Add(appNP.Sub(appPA).ClampMin(0)))
			}
			if max := maxValue(paSum); max > capacity {
				t.Fatalf("seed %d round %d (t=%.1f): pre-allocations %d > capacity %d",
					seed, round, now, max, capacity)
			}
			if max := maxValue(npSum); max > capacity {
				t.Fatalf("seed %d round %d (t=%.1f): non-preemptible load %d > capacity %d",
					seed, round, now, max, capacity)
			}
			if max := maxValue(combined); max > capacity {
				t.Fatalf("seed %d round %d (t=%.1f): guaranteed demand %d > capacity %d",
					seed, round, now, max, capacity)
			}
			if physNow > capacity {
				t.Fatalf("seed %d round %d (t=%.1f): instantaneous physical load %d > capacity %d",
					seed, round, now, physNow, capacity)
			}

			// Views handed to applications are never negative.
			for id, v := range out.NonPreemptViews {
				if !v.NonNegative() {
					t.Fatalf("seed %d: negative non-preemptive view for app %d: %v", seed, id, v)
				}
			}
			for id, v := range out.PreemptViews {
				if !v.NonNegative() {
					t.Fatalf("seed %d: negative preemptive view for app %d: %v", seed, id, v)
				}
			}
		}
	}
}

// TestPropPreemptibleViewsRespectCapacity: the sum of all preemptive-view
// *grants* (NAlloc of active preemptible requests) can never exceed what is
// left after non-preemptible load, at the current instant.
func TestPropPreemptibleGrantsFit(t *testing.T) {
	const capacity = 12
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		s := NewScheduler(map[view.ClusterID]int{c0: capacity})
		var reqID request.ID = 1
		for i := 0; i < 3; i++ {
			a := s.AddApp(i+1, float64(i))
			// Started non-preemptible load.
			n := 1 + rng.Intn(3)
			np := request.New(reqID, a.ID, c0, n, 500, request.NonPreempt, request.Free, nil)
			reqID++
			np.StartedAt = 0
			np.Wrapped = true
			a.NP.Add(np)
			// A hungry preemptible request.
			p := request.New(reqID, a.ID, c0, capacity, math.Inf(1), request.Preempt, request.Free, nil)
			reqID++
			p.StartedAt = 0
			a.P.Add(p)
		}
		s.Schedule(1)

		npLoad, grants := 0, 0
		for _, a := range s.Apps() {
			for _, r := range a.NP.All() {
				npLoad += r.NAlloc
			}
			for _, r := range a.P.All() {
				grants += r.NAlloc
			}
		}
		if npLoad+grants > capacity {
			t.Fatalf("seed %d: ¬P %d + preemptible grants %d > %d", seed, npLoad, grants, capacity)
		}
	}
}

// maxValue returns the largest value f takes (0 for the zero function).
func maxValue(f *stepfunc.StepFunc) int {
	m := 0
	for i := 0; i < f.Len(); i++ {
		if _, n := f.At(i); i == 0 || n > m {
			m = n
		}
	}
	return m
}
