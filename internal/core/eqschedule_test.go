package core

import (
	"math"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// mkApp builds an AppState with a single preemptible request of n nodes
// (infinite duration), optionally already started.
func mkPApp(id, n int, started bool) *AppState {
	a := NewAppState(id, float64(id))
	if n > 0 {
		r := request.New(request.ID(id*100), id, "c0", n, math.Inf(1), request.Preempt, request.Free, nil)
		if started {
			r.StartedAt = 0
		}
		a.P.Add(r)
	}
	return a
}

// TestRestrictedRescheduleMatchesGrantedView: the rescheduling pass runs
// toView and fit on each application's granted view restricted to its
// preemptible requests' clusters. With requests on two of three clusters —
// started, pending, NEXT- and COALLOC-related — rescheduling every
// application against its whole granted view sets the same NAlloc and
// ScheduledAt.
func TestRestrictedRescheduleMatchesGrantedView(t *testing.T) {
	const now = 5.0
	s := NewScheduler(map[view.ClusterID]int{"c0": 12, "c1": 9, "c2": 7})
	id := request.ID(1)
	mk := func(a *AppState, cid view.ClusterID, n int, dur float64, typ request.Type, how request.Relation, parent *request.Request) *request.Request {
		r := request.New(id, a.ID, cid, n, dur, typ, how, parent)
		id++
		a.SetFor(typ).Add(r)
		return r
	}
	for i := 0; i < 4; i++ {
		a := s.AddApp(i+1, float64(i))
		cid := []view.ClusterID{"c0", "c1"}[i%2]
		run := mk(a, cid, 3+i, math.Inf(1), request.Preempt, request.Free, nil)
		run.StartedAt = 1
		mk(a, cid, 2+i, 40, request.Preempt, request.Next, run)
		mk(a, "c1", 4, 30, request.Preempt, request.Free, nil)
		if i == 0 {
			np := mk(a, "c2", 3, 20, request.NonPreempt, request.Free, nil)
			np.StartedAt = 2
			mk(a, "c0", 2, 20, request.Preempt, request.Coalloc, np)
		}
	}
	out := gather(s, s.Schedule(now))
	for _, a := range s.Apps() {
		v := out.PreemptViews[a.ID]
		if len(v) != 3 {
			t.Fatalf("application %d's granted view names %v, want all three clusters", a.ID, v)
		}
		type attrs struct {
			nalloc int
			at     float64
		}
		var got []attrs
		for _, r := range a.P.All() {
			got = append(got, attrs{r.NAlloc, r.ScheduledAt})
		}
		fixed := toView(a.P, v, now)
		avail := v.Sub(fixed)
		avail.MutClampMin(0)
		fit(a.P, avail, now)
		for i, r := range a.P.All() {
			if want := (attrs{r.NAlloc, r.ScheduledAt}); got[i] != want {
				t.Errorf("application %d request %d: restricted pass set %+v, the whole granted view %+v", a.ID, r.ID, got[i], want)
			}
		}
	}
}

func TestEqScheduleSingleAppGetsEverything(t *testing.T) {
	a := mkPApp(1, 10, true)
	vin := view.Constant(10, "c0")
	views := eqSchedule([]*AppState{a}, vin, 0, EquiPartitionFilling)
	if got := views[1].Get("c0").Value(0); got != 10 {
		t.Errorf("single app view = %d, want 10", got)
	}
	if a.P.All()[0].NAlloc != 10 {
		t.Errorf("NAlloc = %d, want 10", a.P.All()[0].NAlloc)
	}
}

func TestEqScheduleCongestedEquiPartition(t *testing.T) {
	// Two apps both wanting everything: each gets half.
	a := mkPApp(1, 10, true)
	b := mkPApp(2, 10, true)
	vin := view.Constant(10, "c0")
	views := eqSchedule([]*AppState{a, b}, vin, 0, EquiPartitionFilling)
	if got := views[1].Get("c0").Value(0); got != 5 {
		t.Errorf("app1 view = %d, want 5", got)
	}
	if got := views[2].Get("c0").Value(0); got != 5 {
		t.Errorf("app2 view = %d, want 5", got)
	}
}

func TestEqScheduleFillingUncongested(t *testing.T) {
	// App1 requests only 2 of 10; app2 requests 8. Uncongested (2+8=10).
	// Filling: app2 sees everything app1 leaves unused (8), app1 sees 2
	// left by app2... but never below its equi-partition (5).
	a := mkPApp(1, 2, true)
	b := mkPApp(2, 8, true)
	vin := view.Constant(10, "c0")
	views := eqSchedule([]*AppState{a, b}, vin, 0, EquiPartitionFilling)
	if got := views[1].Get("c0").Value(0); got != 5 {
		t.Errorf("app1 view = %d, want 5 (its equi-partition floor)", got)
	}
	if got := views[2].Get("c0").Value(0); got != 8 {
		t.Errorf("app2 view = %d, want 8 (fills app1's leftovers)", got)
	}
}

func TestEqScheduleStrict(t *testing.T) {
	// Strict equi-partitioning (§5.4 baseline): views are the fair share no
	// matter what the other application requests.
	a := mkPApp(1, 2, true)
	b := mkPApp(2, 8, true)
	vin := view.Constant(10, "c0")
	views := eqSchedule([]*AppState{a, b}, vin, 0, StrictEquiPartition)
	if got := views[1].Get("c0").Value(0); got != 5 {
		t.Errorf("strict app1 view = %d, want 5", got)
	}
	if got := views[2].Get("c0").Value(0); got != 5 {
		t.Errorf("strict app2 view = %d, want 5 (may NOT fill)", got)
	}
	// The 8-node request is shrunk to the partition.
	if got := b.P.All()[0].NAlloc; got != 5 {
		t.Errorf("strict NAlloc = %d, want 5", got)
	}
}

func TestEqScheduleInactiveAppSeesHypotheticalShare(t *testing.T) {
	// One active app using everything, one inactive app. The inactive app's
	// view uses active+1 partitions (Alg. 3 lines 22–23): 10/2 = 5.
	a := mkPApp(1, 10, true)
	b := mkPApp(2, 0, false) // no preemptible requests
	vin := view.Constant(10, "c0")
	views := eqSchedule([]*AppState{a, b}, vin, 0, EquiPartitionFilling)
	if got := views[1].Get("c0").Value(0); got != 10 {
		t.Errorf("active app view = %d, want 10 (no competition yet)", got)
	}
	if got := views[2].Get("c0").Value(0); got != 5 {
		t.Errorf("inactive app view = %d, want 5 (hypothetical share)", got)
	}
}

func TestEqScheduleNoAppsNoViews(t *testing.T) {
	views := eqSchedule(nil, view.Constant(4, "c0"), 0, EquiPartitionFilling)
	if len(views) != 0 {
		t.Error("no apps should yield no views")
	}
}

func TestEqScheduleTimeVaryingAvailability(t *testing.T) {
	// Availability drops from 10 to 4 at t=100 (e.g. an announced
	// non-preemptible allocation). Both views must show the future drop.
	a := mkPApp(1, 10, true)
	vin := view.New().AddRect("c0", 0, 100, 10).AddRect("c0", 100, math.Inf(1), 4)
	views := eqSchedule([]*AppState{a}, vin, 0, EquiPartitionFilling)
	f := views[1].Get("c0")
	if f.Value(50) != 10 || f.Value(150) != 4 {
		t.Errorf("time-varying view wrong: %v", f)
	}
	// The entitlement (NAlloc) is the *current* availability; the future
	// drop is signalled through the view and becomes binding only when the
	// drop time arrives (§3.1.4 "either immediately or at a future time").
	if got := a.P.All()[0].NAlloc; got != 10 {
		t.Errorf("NAlloc = %d, want 10 (instantaneous entitlement)", got)
	}
	views2 := eqSchedule([]*AppState{a}, vin, 150, EquiPartitionFilling)
	if got := a.P.All()[0].NAlloc; got != 4 {
		t.Errorf("NAlloc after the drop = %d, want 4", got)
	}
	_ = views2
}

func TestEqScheduleThreeWaySplitWithRemainder(t *testing.T) {
	// 10 nodes, 3 hungry apps: water-filling grants 4/3/3 or 3/3/4 etc.;
	// total exactly 10, each at least 3.
	apps := []*AppState{mkPApp(1, 10, true), mkPApp(2, 10, true), mkPApp(3, 10, true)}
	vin := view.Constant(10, "c0")
	views := eqSchedule(apps, vin, 0, EquiPartitionFilling)
	total := 0
	for id := 1; id <= 3; id++ {
		v := views[id].Get("c0").Value(0)
		if v < 3 {
			t.Errorf("app%d got %d, want >= 3", id, v)
		}
		total += v
	}
	if total != 10 {
		t.Errorf("granted total = %d, want 10 (no over/under subscription)", total)
	}
}

func TestEqScheduleViewsNeverExceedAvailability(t *testing.T) {
	// Sum of *granted* allocations (NAlloc) must never exceed availability,
	// under both policies, across several request mixes.
	for _, policy := range []PreemptPolicy{EquiPartitionFilling, StrictEquiPartition} {
		for _, mix := range [][]int{{1, 1}, {10, 10}, {3, 9}, {0, 7}, {2, 2, 2, 9}} {
			var apps []*AppState
			for i, n := range mix {
				apps = append(apps, mkPApp(i+1, n, true))
			}
			vin := view.Constant(8, "c0")
			eqSchedule(apps, vin, 0, policy)
			total := 0
			for _, a := range apps {
				for _, r := range a.P.All() {
					total += r.NAlloc
				}
			}
			if total > 8 {
				t.Errorf("policy %v mix %v: granted %d > 8 available", policy, mix, total)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if EquiPartitionFilling.String() != "equi-partition-filling" {
		t.Error("policy string")
	}
	if StrictEquiPartition.String() != "strict-equi-partition" {
		t.Error("policy string")
	}
}
