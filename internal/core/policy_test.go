package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// dynamicFIFO is FIFO order and admit-all behind a Stable() == false
// policy: it sends every round through the dynamic machinery (policy
// ordering buffer, per-app admission calls) while demanding the exact same
// schedule as the stable fast path. The differential below pins the two paths byte-identical.
type dynamicFIFO struct{}

func (dynamicFIFO) Name() string { return "dynamic-fifo" }

func (dynamicFIFO) Stable() bool { return false }

func (dynamicFIFO) Order(_ RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	return append(buf, apps...)
}

func (dynamicFIFO) Admit(RoundInfo, *AppState) bool { return true }

// TestPolicyPathMatchesFIFO is the FIFOPolicy differential required by the
// policy redesign: the policy-dispatched dynamic path (ordering buffer,
// admission calls) must produce byte-identical views, start lists, and
// request attributes to the default stable FIFO path across the full
// randomized churn generator.
func TestPolicyPathMatchesFIFO(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		fifo := newDiffMirror(clusters, true)
		dyn := newDiffMirror(clusters, true)
		dyn.s.SetSchedulingPolicy(dynamicFIFO{})
		runDiffChurn(t, seed, fifo, dyn)
	}
}

// shiftingPolicy is a reordering policy whose answer is a function of
// RoundInfo.Now alone, so two mirrored schedulers see the same one: it
// holds an order for a few rounds (a phase lasts 40 time units, a churn
// round advances 7.5 on average), then reverses it, then swaps only the
// last two applications (a suffix perturbation), then rotates by one.
// With flipAdmit it also refuses a third of the applications, a different
// third every 25 time units — so some rounds change only admissions.
type shiftingPolicy struct{ flipAdmit bool }

func (shiftingPolicy) Name() string { return "shifting" }
func (shiftingPolicy) Stable() bool { return false }

func (shiftingPolicy) Order(info RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	buf = append(buf, apps...)
	n := len(buf)
	switch int(info.Now/40) % 4 {
	case 1:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
	case 2:
		if n >= 2 {
			buf[n-2], buf[n-1] = buf[n-1], buf[n-2]
		}
	case 3:
		if n >= 2 {
			first := buf[0]
			copy(buf, buf[1:])
			buf[n-1] = first
		}
	}
	return buf
}

func (p shiftingPolicy) Admit(info RoundInfo, a *AppState) bool {
	return !p.flipAdmit || (int(info.Now/25)+a.ID)%3 != 0
}

// TestDynamicPolicyIncrementalMatchesFull is the differential behind the
// order-carrying caches: under a policy that reorders and re-admits over
// time, the incremental scheduler must stay byte-identical to the
// from-scratch oracle across the full randomized churn generator. A CBF
// chain that ignores where a subtracted view sits fails it (a moved or
// re-admitted application changes the running availability of everyone
// after it), and so does a walk permuted although its division depended on
// the order.
func TestDynamicPolicyIncrementalMatchesFull(t *testing.T) {
	for _, p := range []shiftingPolicy{{flipAdmit: false}, {flipAdmit: true}} {
		t.Run(fmt.Sprintf("flipAdmit=%v", p.flipAdmit), func(t *testing.T) {
			var reused int64
			for seed := int64(1); seed <= 40; seed++ {
				clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
				inc := newDiffMirror(clusters, true)
				full := newDiffMirror(clusters, false)
				inc.s.SetSchedulingPolicy(p)
				full.s.SetSchedulingPolicy(p)
				runDiffChurn(t, seed, inc, full)
				if got := full.s.Stats().CBFReused; got != 0 {
					t.Fatalf("seed %d: the oracle reused %d CBF steps", seed, got)
				}
				reused += inc.s.Stats().CBFReused
			}
			if reused == 0 {
				t.Error("no CBF step was ever reused — the differential compared two full paths")
			}
		})
	}
}

// TestPolicySwapMidRunMatchesFull swaps the policy twice in the middle of
// the churn — disruptive, back to the default, disruptive again — on both
// mirrors. The oracle has no cache to carry across a swap, so agreement
// means a swap leaves nothing of the previous policy's rounds behind: the
// caches are warm on both sides of it and the default is restored exactly.
func TestPolicySwapMidRunMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		inc := newDiffMirror(clusters, true)
		full := newDiffMirror(clusters, false)
		for _, m := range []*diffMirror{inc, full} {
			m.s.SetSchedulingPolicy(shiftingPolicy{flipAdmit: true})
			m.onRound = func(round int) {
				switch round {
				case 40:
					m.s.SetSchedulingPolicy(nil)
				case 80:
					m.s.SetSchedulingPolicy(shiftingPolicy{flipAdmit: true})
				}
			}
		}
		runDiffChurn(t, seed, inc, full)
	}
}

// TestRememberedSequenceUnpinned checks that the keys of the CBF chain and
// of the preemptible input, the views the last round subtracted from the
// running availability and from the preemptible fold, never keep a removed
// application's views alive: RemoveApp of an application whose views are in
// them and a policy swap drop them at once, not at the next round. Since a
// teardown stopped flushing every cache, RemoveApp of an application that
// subtracted nothing keeps both keys, and so the round after it reuses them.
func TestRememberedSequenceUnpinned(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	s.SetSchedulingPolicy(dynamicFIFO{})
	for i := 1; i <= 4; i++ {
		a := s.AddApp(i, float64(i))
		// A pending non-preemptible request outside any pre-allocation is
		// wrapped: its excess is subtracted from the running availability,
		// its occupancy from the preemptible fold.
		a.NP.Add(request.New(request.ID(i), i, c0, 2, 10, request.NonPreempt, request.Free, nil))
	}
	s.AddApp(5, 5) // subtracts nothing
	keys := []*[]view.View{&s.cbfMuts, &s.pvMuts}
	dropped := func(after string) {
		t.Helper()
		for _, key := range keys {
			for _, m := range (*key)[:cap(*key)] {
				if m != nil {
					t.Fatalf("after %s a remembered sequence still holds %v", after, m)
				}
			}
		}
	}
	remembers := func(n int) {
		t.Helper()
		for _, key := range keys {
			if len(*key) != n {
				t.Fatalf("a key remembers %d subtracted views, want %d", len(*key), n)
			}
		}
	}
	s.Schedule(0)
	remembers(4)
	s.RemoveApp(5)
	remembers(4)
	s.RemoveApp(2)
	dropped("RemoveApp")
	s.Schedule(1)
	remembers(3)
	s.SetSchedulingPolicy(nil)
	dropped("SetSchedulingPolicy")
	s.Schedule(2)
	remembers(3)
}

// scriptedPolicy answers with the application IDs of order and refuses the
// ones in refused; a test rewrites both between rounds.
type scriptedPolicy struct {
	order   []int
	refused map[int]bool
}

func (*scriptedPolicy) Name() string { return "scripted" }
func (*scriptedPolicy) Stable() bool { return false }

func (p *scriptedPolicy) Order(_ RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	for _, id := range p.order {
		for _, a := range apps {
			if a.ID == id {
				buf = append(buf, a)
			}
		}
	}
	return buf
}

func (p *scriptedPolicy) Admit(_ RoundInfo, a *AppState) bool { return !p.refused[a.ID] }

// scriptedTwins builds one incremental scheduler and its from-scratch twin
// with build, both under p; round schedules both at now and fails the test
// unless their views agree, returning the incremental side's outcome.
func scriptedTwins(t *testing.T, clusters map[view.ClusterID]int, p *scriptedPolicy, build func(s *Scheduler)) (inc *Scheduler, round func(now float64) *gathered) {
	inc, full := NewScheduler(clusters), NewScheduler(clusters)
	full.SetIncremental(false)
	for _, s := range []*Scheduler{inc, full} {
		s.SetSchedulingPolicy(p)
		build(s)
	}
	return inc, func(now float64) *gathered {
		t.Helper()
		a, b := gather(inc, inc.Schedule(now)), gather(full, full.Schedule(now))
		if err := viewsEqual(a.NonPreemptViews, b.NonPreemptViews); err != nil {
			t.Fatalf("t=%v: non-preemptive: %v", now, err)
		}
		if err := viewsEqual(a.PreemptViews, b.PreemptViews); err != nil {
			t.Fatalf("t=%v: preemptive: %v", now, err)
		}
		return a
	}
}

// TestReorderKeepsCaches: a dynamic policy that reverses its order moves
// applications that subtract nothing from the running availability and
// whose preemptible division does not depend on the order, so the round
// after it recomputes no CBF step, no walk and no application, and hands
// over every view map of the round before. Where the division does depend
// on the order — a congested cluster handing out its last nodes one each —
// exactly that cluster's walk is recomputed.
func TestReorderKeepsCaches(t *testing.T) {
	for _, congested := range []bool{false, true} {
		t.Run(fmt.Sprintf("congested=%v", congested), func(t *testing.T) {
			testReorderKeepsCaches(t, congested)
		})
	}
}

func testReorderKeepsCaches(t *testing.T, congested bool) {
	clusters := map[view.ClusterID]int{"cx": 64, "cy": 64, "cz": 5}
	p := &scriptedPolicy{order: []int{1, 2, 3, 4, 5, 6, 7}}
	if congested {
		p.order = append(p.order, 8, 9, 10)
	}
	inc, round := scriptedTwins(t, clusters, p, func(s *Scheduler) {
		id := request.ID(1)
		started := func(app int, cid view.ClusterID, n int, dur float64, typ request.Type) {
			r := request.New(id, app, cid, n, dur, typ, request.Free, nil)
			id++
			r.StartedAt = 0
			s.App(app).SetFor(typ).Add(r)
		}
		// 1–6: settled, a non-preemptible request inside a pre-allocation
		// plus a preemptible one, on cx or cy (uncongested); 7 requests
		// nothing; 8–10 share the 5 nodes of cz, 4 preemptible nodes each.
		for _, app := range p.order {
			s.AddApp(app, float64(app))
			switch {
			case app <= 6:
				cid := []view.ClusterID{"cx", "cy"}[app%2]
				started(app, cid, 8, 1000, request.PreAlloc)
				started(app, cid, 4, 500, request.NonPreempt)
				started(app, cid, 2, math.Inf(1), request.Preempt)
			case app >= 8:
				started(app, "cz", 4, math.Inf(1), request.Preempt)
			}
		}
	})
	round(1)
	before := round(2)
	np := maps.Clone(before.NonPreemptViews)
	pv := maps.Clone(before.PreemptViews)
	st := inc.Stats()

	slices.Reverse(p.order)
	out := round(3)
	d := inc.Stats()
	if got := d.CBFRecomputed - st.CBFRecomputed; got != 0 {
		t.Errorf("the reversed round recomputed %d CBF steps, want 0", got)
	}
	for _, app := range p.order {
		if !view.Same(out.NonPreemptViews[app], np[app]) {
			t.Errorf("application %d's non-preemptive fragments are new objects after a reorder", app)
		}
	}
	if !congested {
		if got := d.WalksRecomputed - st.WalksRecomputed; got != 0 {
			t.Errorf("the reversed round recomputed %d walks, want 0", got)
		}
		if got := d.EqAppRecomputed - st.EqAppRecomputed; got != 0 {
			t.Errorf("the reversed round rescheduled %d applications, want 0", got)
		}
		for _, app := range p.order {
			if !sameFrags(out.PreemptViews[app], pv[app]) {
				t.Errorf("application %d's preemptive fragments are new objects after a reorder", app)
			}
		}
		return
	}
	if got := d.WalksRecomputed - st.WalksRecomputed; got != 1 {
		t.Errorf("the reversed round recomputed %d walks, want 1 (cz's)", got)
	}
	if out.PreemptViews[8].Equal(pv[8]) && out.PreemptViews[10].Equal(pv[10]) {
		t.Error("cz's last node went to the same application in both orders: its division does not depend on the order")
	}
}

// TestIdleRunEndsAtReusedSubtraction: once a reorder has recomputed a
// request-less application, a reused application after it that subtracts
// its wrapped excess ends the run of request-less applications sharing one
// view, so the next one — recomputed because it was refused last round —
// sees the availability after the subtraction.
func TestIdleRunEndsAtReusedSubtraction(t *testing.T) {
	p := &scriptedPolicy{order: []int{2, 1, 3}, refused: map[int]bool{3: true}}
	inc, round := scriptedTwins(t, map[view.ClusterID]int{c0: 8}, p, func(s *Scheduler) {
		for app := 1; app <= 3; app++ {
			s.AddApp(app, float64(app))
		}
		// Application 2 runs 2 nodes outside any pre-allocation (its
		// pre-allocation ended early): a settled application whose CBF step
		// subtracts them from the running availability.
		r := request.New(1, 2, c0, 2, 50, request.NonPreempt, request.Free, nil)
		r.StartedAt = 0
		s.App(2).NP.Add(r)
	})
	round(1)
	p.order, p.refused = []int{1, 2, 3}, nil
	st := inc.Stats()
	out := round(2)
	if got := inc.Stats().CBFReused - st.CBFReused; got != 1 {
		t.Fatalf("%d CBF steps reused, want 1 (application 2's, after 1 was recomputed)", got)
	}
	if got := out.NonPreemptViews[3].Get(c0).MinOn(2, 50); got != 6 {
		t.Errorf("application 3 sees %d free nodes, want 6", got)
	}
}

// reverseAdmitOne reverses the round order and admits everything except
// one chosen application — a deliberately disruptive policy used to check
// that disabling it restores the default exactly.
type reverseAdmitOne struct{ blocked int }

func (p reverseAdmitOne) Name() string { return "reverse" }
func (p reverseAdmitOne) Stable() bool { return false }
func (p reverseAdmitOne) Order(_ RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	for i := len(apps) - 1; i >= 0; i-- {
		buf = append(buf, apps[i])
	}
	return buf
}
func (p reverseAdmitOne) Admit(_ RoundInfo, a *AppState) bool { return a.ID != p.blocked }

// TestAdmissionGating checks the non-admitted contract: pending requests
// stay unscheduled (ScheduledAt = +Inf) and never start, started work
// keeps counting, and re-admission schedules the backlog again.
func TestAdmissionGating(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	a := s.AddApp(1, 0)
	b := s.AddApp(2, 1)
	ra := request.New(1, 1, c0, 4, 100, request.NonPreempt, request.Free, nil)
	a.NP.Add(ra)
	rb := request.New(2, 2, c0, 4, 100, request.NonPreempt, request.Free, nil)
	b.NP.Add(rb)

	s.SetSchedulingPolicy(reverseAdmitOne{blocked: 2})
	s.Schedule(0)
	out := gather(s, s.Schedule(0)) // same answer again: this round runs on warm caches
	if !math.IsInf(rb.ScheduledAt, 1) || rb.NAlloc != 0 {
		t.Fatalf("blocked app's request scheduled at %v alloc %d, want unscheduled", rb.ScheduledAt, rb.NAlloc)
	}
	if len(out.ToStart) != 1 || out.ToStart[0] != ra {
		t.Fatalf("ToStart = %v, want only the admitted app's request", out.ToStart)
	}
	if b.admitted || !a.admitted {
		t.Fatalf("admission flags: a=%v b=%v", a.admitted, b.admitted)
	}
	// The blocked app still sees the free space: it is first in the
	// reversed order, so the admitted app has not consumed anything yet
	// at its point in the round.
	if v := out.NonPreemptViews[2]; v.Get(c0).MinOn(0, 100) != 8 {
		t.Fatalf("blocked app's view = %v, want the full 8 free nodes", v)
	}

	ra.StartedAt = 0
	s.MarkAppDirty(1)

	// Re-admitting schedules the backlog behind the started work.
	s.SetSchedulingPolicy(nil) // back to FIFO
	s.Schedule(1)
	s.Schedule(1) // and warm again on this side of the swap
	if !a.admitted && b.admitted {
		t.Fatal("stable policy must not rewrite admission flags")
	}
	if math.IsInf(rb.ScheduledAt, 1) || rb.NAlloc != 4 {
		t.Fatalf("re-admitted request scheduled at %v alloc %d, want scheduled", rb.ScheduledAt, rb.NAlloc)
	}
}

// TestRemoveAppAllocs pins the satellite fix: removing an application is
// O(1) swap-delete with zero heap allocations.
func TestRemoveAppAllocs(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	const n = 1000
	for i := 0; i < n; i++ {
		s.AddApp(i, float64(i))
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		s.RemoveApp(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("RemoveApp allocates %.1f times per call, want 0", allocs)
	}
}

// TestRemoveAppOrder checks that swap-delete plus lazy re-sort preserves
// the connection-order contract of Apps and the scheduling round.
func TestRemoveAppOrder(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	for i := 1; i <= 5; i++ {
		s.AddApp(i, float64(i))
	}
	s.RemoveApp(2) // middle removal swaps the tail into the hole
	s.RemoveApp(5) // tail removal
	want := []int{1, 3, 4}
	got := s.Apps()
	if len(got) != len(want) {
		t.Fatalf("Apps len = %d, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.ID != want[i] {
			t.Fatalf("Apps[%d] = %d, want %d", i, a.ID, want[i])
		}
		if a.idx != i {
			t.Fatalf("Apps[%d].idx = %d, want %d", i, a.idx, i)
		}
	}
	if s.RemoveApp(2) != nil {
		t.Fatal("double remove must return nil")
	}
	// Interleaved add/remove keeps order: a re-added app with an earlier
	// connection time sorts back to the front.
	s.AddApp(9, 0.5)
	if apps := s.Apps(); apps[0].ID != 9 {
		t.Fatalf("Apps[0] = %d, want 9", apps[0].ID)
	}
}

// TestRemoveAppTeardownLinear is the complexity regression: tearing down a
// large fleet must not be quadratic. 200k removals of the old linear-scan
// implementation would perform ~2·10¹⁰ pointer comparisons — minutes of
// work — while swap-delete finishes in well under a second.
func TestRemoveAppTeardownLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	const n = 200_000
	for i := 0; i < n; i++ {
		s.AddApp(i, float64(i))
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			s.RemoveApp(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("teardown of 200k apps took >20s — removal is superlinear again")
	}
	if len(s.Apps()) != 0 {
		t.Fatal("apps left after teardown")
	}
}
