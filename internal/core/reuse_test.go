package core

import (
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// twin applies every operation to an incremental scheduler and its
// full-recompute twin and compares the two after every Schedule call: views,
// start lists and every scheduler-owned request attribute.
type twin struct {
	t         *testing.T
	inc, full *diffMirror
}

func newTwin(t *testing.T, clusters map[view.ClusterID]int) *twin {
	return &twin{t: t, inc: newDiffMirror(clusters, true), full: newDiffMirror(clusters, false)}
}

func (tw *twin) op(op diffOp, now float64) {
	tw.t.Helper()
	tw.inc.apply(tw.t, op, now)
	tw.full.apply(tw.t, op, now)
}

// request submits a request on both sides; at >= 0 also starts it then.
func (tw *twin) request(app int, id request.ID, cid view.ClusterID, n int, dur float64, typ request.Type, at float64) {
	tw.t.Helper()
	tw.op(diffOp{kind: "request", app: app, req: id, cluster: cid, n: n, dur: dur, typ: typ}, 0)
	if at >= 0 {
		for _, m := range []*diffMirror{tw.inc, tw.full} {
			m.reqs[id].StartedAt = at
		}
	}
}

// schedule runs one Schedule call on both sides and returns the incremental
// side's outcome.
func (tw *twin) schedule(now float64) *gathered {
	tw.t.Helper()
	a, b := gather(tw.inc.s, tw.inc.s.Schedule(now)), gather(tw.full.s, tw.full.s.Schedule(now))
	if err := tw.inc.compareTo(tw.full, a, b); err != nil {
		tw.t.Fatalf("t=%v: %v", now, err)
	}
	return a
}

// round is the rms shape: schedule, start what arrived, schedule again.
func (tw *twin) round(now float64) *gathered {
	tw.t.Helper()
	a := tw.schedule(now)
	b := gather(tw.full.s, tw.full.s.Schedule(now))
	tw.inc.startArrived(a, now)
	tw.full.startArrived(b, now)
	return tw.schedule(now)
}

// TestMembershipKeepsCaches: on a shard with a queue, a request-less
// application connecting and another leaving between two rounds flush no
// cache. The round after them recomputes the new application's CBF step and
// nothing else: no walk, every other application keeps both of its view
// maps, the new one has both entries and the removed one none. A teardown of
// the application whose running allocation holds the queue back frees its
// nodes at the next round, exactly as a full recomputation says.
func TestMembershipKeepsCaches(t *testing.T) {
	tw := newTwin(t, map[view.ClusterID]int{c0: 8, "c1": 8})
	for app := 1; app <= 8; app++ {
		tw.op(diffOp{kind: "connect", app: app}, 0)
	}
	tw.request(1, 1, c0, 8, 100, request.NonPreempt, 0)
	for app := 2; app <= 5; app++ { // queued behind application 1 until 100
		tw.request(app, request.ID(app), c0, 2, 50, request.NonPreempt, -1)
	}
	// Applications 6 and 7 request nothing; 8 holds preemptible nodes.
	tw.request(8, 8, "c1", 4, math.Inf(1), request.Preempt, 0)
	tw.round(1)
	before := tw.round(2)
	np, pv := make(map[int]view.View), make(map[int]view.View)
	for app := range before.NonPreemptViews {
		np[app], pv[app] = before.NonPreemptViews[app], before.PreemptViews[app]
	}
	s := tw.inc.s
	st := s.Stats()

	tw.op(diffOp{kind: "connect", app: 9}, 3)
	tw.op(diffOp{kind: "disconnect", app: 6}, 3)
	out := tw.round(3)
	d := s.Stats()
	if d.FullRounds != st.FullRounds {
		t.Errorf("a connect and a teardown made %d rounds full", d.FullRounds-st.FullRounds)
	}
	if got := d.CBFRecomputed - st.CBFRecomputed; got > 1 {
		t.Errorf("the round recomputed %d CBF steps, want at most 1 (the new application's)", got)
	}
	if got := d.WalksRecomputed - st.WalksRecomputed; got != 0 {
		t.Errorf("the round recomputed %d walks, want 0", got)
	}
	for app := range np {
		if app == 6 {
			continue
		}
		if !view.Same(out.NonPreemptViews[app], np[app]) || !sameFrags(out.PreemptViews[app], pv[app]) {
			t.Errorf("application %d's views are new maps or fragments after a connect and a teardown", app)
		}
	}
	if _, ok := out.PreemptViews[9]; !ok {
		t.Error("the new application has no preemptive view")
	}
	if _, ok := out.NonPreemptViews[6]; ok {
		t.Error("the removed application keeps its non-preemptive view")
	}

	tw.op(diffOp{kind: "disconnect", app: 1}, 4)
	out = tw.round(4)
	if len(out.ToStart) != 0 || tw.inc.reqs[2].StartedAt != 4 {
		t.Errorf("the queue did not start at 4 once its blocker was torn down")
	}
	if s.Stats().FullRounds != st.FullRounds {
		t.Error("a teardown of a running application made a round full")
	}
}

// TestQueuedStepHorizon: an application whose pending requests are all FREE
// roots keeps its CBF step while the clock is before the earliest start fit
// gave them and exactly at it, and recomputes it after. An application with
// a pending NEXT or COALLOC chain is recomputed every round, and so is one
// that withdrew one of its two pending requests, which leaves its rects as
// they were, or whose request's NotBefore floor moved. A step is not reused
// at an instant before the one it was computed at either: an earlier lower
// bound may find an earlier hole.
func TestQueuedStepHorizon(t *testing.T) {
	tw := newTwin(t, map[view.ClusterID]int{c0: 10})
	for app := 1; app <= 5; app++ {
		tw.op(diffOp{kind: "connect", app: app}, 0)
	}
	tw.request(1, 1, c0, 10, 100, request.NonPreempt, 0)
	tw.request(2, 2, c0, 4, 50, request.NonPreempt, -1) // queued until 100
	tw.request(3, 3, c0, 1, 30, request.NonPreempt, -1) // both queued until 100
	tw.request(3, 4, c0, 1, 30, request.NonPreempt, -1)
	tw.request(4, 5, c0, 2, 20, request.NonPreempt, -1)
	tw.op(diffOp{kind: "request", app: 4, req: 6, parent: 5, cluster: c0, n: 2, dur: 20, typ: request.NonPreempt, how: request.Next}, 0)
	tw.request(5, 7, c0, 2, 20, request.NonPreempt, -1)
	tw.op(diffOp{kind: "request", app: 5, req: 8, parent: 7, cluster: c0, n: 1, dur: 20, typ: request.NonPreempt, how: request.Coalloc}, 0)
	tw.schedule(0)
	for _, step := range []struct {
		now    float64
		mutate diffOp
		want   int64
		why    string
	}{
		{50, diffOp{}, 2, "only the NEXT and COALLOC chains"},
		{60, diffOp{kind: "withdraw", app: 3, req: 4}, 3, "application 3 after a withdrawal, and the chains"},
		{100, diffOp{}, 2, "only the chains, exactly at the queued start"},
		{101, diffOp{}, 4, "past the queued start, everything"},
		{101, diffOp{kind: "setnb", app: 2, req: 2, nb: 150}, 4, "application 2 after a NotBefore change, and everything after it"},
		{20, diffOp{}, 4, "before the instant the steps were computed at, everything"},
	} {
		if step.mutate.kind != "" {
			tw.op(step.mutate, step.now)
		}
		before := tw.inc.s.Stats().CBFRecomputed
		tw.schedule(step.now)
		if got := tw.inc.s.Stats().CBFRecomputed - before; got != step.want {
			t.Errorf("t=%v: %d CBF steps recomputed, want %d (%s)", step.now, got, step.want, step.why)
		}
	}
}

// TestPreemptInputKeyedOnSubtractions: the preemptible input of a round
// whose CBF pass subtracted the ¬P occupancies of the round before, over an
// unchanged preemptible fold, is the round before's map, and every walk and
// preemptive view map holds. A changed subtraction — a queued request
// withdrawn — rebuilds it, and only the walk of the cluster it touched is
// recomputed. So does a changed fold under the same (empty) subtractions.
func TestPreemptInputKeyedOnSubtractions(t *testing.T) {
	tw := newTwin(t, map[view.ClusterID]int{"cx": 8, "cy": 8})
	for app := 1; app <= 5; app++ {
		tw.op(diffOp{kind: "connect", app: app}, 0)
	}
	tw.request(1, 1, "cx", 8, 100, request.NonPreempt, 0)
	tw.request(2, 2, "cx", 4, 50, request.NonPreempt, -1) // queued: a ¬P occupancy from 100
	tw.request(3, 3, "cx", 4, math.Inf(1), request.Preempt, 0)
	tw.request(4, 4, "cy", 4, math.Inf(1), request.Preempt, 0)
	// Application 5 requests nothing.
	tw.schedule(0)
	s := tw.inc.s
	before := tw.schedule(1)
	pv := make(map[int]view.View)
	for app, v := range before.PreemptViews {
		pv[app] = v
	}
	vin, st := s.pvClamp, s.Stats()
	out := tw.schedule(2)
	if !view.Same(s.pvClamp, vin) {
		t.Error("the same subtractions over the same fold built a new preemptible input")
	}
	if got := s.Stats().WalksRecomputed - st.WalksRecomputed; got != 0 {
		t.Errorf("%d walks recomputed on an unchanged input, want 0", got)
	}
	for app, v := range pv {
		if !sameFrags(out.PreemptViews[app], v) {
			t.Errorf("application %d's preemptive fragments are new objects on an unchanged input", app)
		}
	}

	tw.op(diffOp{kind: "withdraw", app: 2, req: 2}, 3)
	st = s.Stats()
	tw.schedule(3)
	if view.Same(s.pvClamp, vin) {
		t.Error("a withdrawn ¬P occupancy left the preemptible input as it was")
	}
	if got := s.Stats().WalksRecomputed - st.WalksRecomputed; got != 1 {
		t.Errorf("%d walks recomputed after a change on cx, want 1", got)
	}

	cy := s.pvClamp.Get("cy")
	tw.request(5, 5, "cy", 2, 10, request.NonPreempt, 3)
	tw.schedule(4)
	if s.pvClamp.Get("cy") == cy {
		t.Error("a started ¬P request on cy left the preemptible input as it was")
	}
}

// TestMembershipChurnBounded pins what a flush at every connect and teardown
// used to give for free. Over 10,000 connect/teardown cycles interleaved with
// rounds, on a shard whose queue holds ¬P requests and whose applications
// start, run and hold preemptible nodes, neither cache key holds a view of an
// application that is gone, from the teardown on.
func TestMembershipChurnBounded(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8, "c1": 8})
	rng := rand.New(rand.NewSource(1))
	var live []*AppState
	keysLive := func(when string, cycle int) {
		t.Helper()
		for _, k := range []struct {
			name string
			key  []view.View
			of   func(c *appCache) [2]view.View
		}{
			{"CBF chain", s.cbfMuts, func(c *appCache) [2]view.View { return [2]view.View{c.cbfPA, c.cbfExcess} }},
			{"preemptible input", s.pvMuts, func(c *appCache) [2]view.View { return [2]view.View{c.cbfNP} }},
		} {
			for _, m := range k.key {
				found := false
				for _, a := range live {
					for _, v := range k.of(&a.cache) {
						found = found || (v != nil && view.Same(v, m))
					}
				}
				if !found {
					t.Fatalf("cycle %d, %s: the %s key holds a view no live application subtracted", cycle, when, k.name)
				}
			}
		}
	}
	id := request.ID(1)
	for cycle := 0; cycle < 10000; cycle++ {
		now := float64(cycle)
		a := s.AddApp(cycle+1, now)
		switch rng.Intn(4) {
		case 0: // request-less
		case 1, 2:
			a.NP.Add(request.New(id, a.ID, c0, 1+rng.Intn(4), 1+rng.Float64()*20, request.NonPreempt, request.Free, nil))
		case 3:
			a.P.Add(request.New(id, a.ID, "c1", 1+rng.Intn(4), math.Inf(1), request.Preempt, request.Free, nil))
		}
		id++
		live = append(live, a)
		for len(live) > 12 || (len(live) > 0 && rng.Intn(2) == 0) {
			k := rng.Intn(len(live))
			s.RemoveApp(live[k].ID)
			live = append(live[:k], live[k+1:]...)
			keysLive("after a teardown", cycle)
		}
		for _, r := range s.Schedule(now) {
			r.StartedAt = now
			s.MarkAppDirty(r.AppID)
		}
		s.Schedule(now)
		keysLive("after a round", cycle)
	}
	if st := s.Stats(); st.FullRounds != 0 || st.CBFReused == 0 {
		t.Errorf("FullRounds = %d, CBF steps reused %d: want 0 and some", st.FullRounds, st.CBFReused)
	}
}

// TestViewsSinceReportsChanges: ViewsSince reports every cluster when asked
// for all, then only the clusters whose fragment is a new object, with the
// fragment it reported last; a cluster the scheduler dropped is reported
// once with a nil fragment, and one it gained with a nil was.
func TestViewsSinceReportsChanges(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{"cx": 8, "cy": 8})
	runner, idle := s.AddApp(1, 0), s.AddApp(2, 1)
	r := request.New(1, runner.ID, "cx", 4, math.Inf(1), request.Preempt, request.Free, nil)
	runner.P.Add(r)
	s.MarkAppDirty(runner.ID)
	s.Schedule(0)
	r.StartedAt = 0
	s.MarkAppDirty(runner.ID)
	s.Schedule(0)

	type change struct{ was, now *stepfunc.StepFunc }
	since := func(a *AppState, all bool) map[view.ClusterID]change {
		got := make(map[view.ClusterID]change)
		a.ViewsSince(all, func(cid view.ClusterID, was, now *stepfunc.StepFunc) {
			if _, dup := got[cid]; dup {
				t.Fatalf("app %d: %s reported twice", a.ID, cid)
			}
			got[cid] = change{was, now}
		})
		return got
	}
	for _, a := range []*AppState{runner, idle} {
		_, pv := a.Views()
		got := since(a, true)
		if len(got) != 2 || got["cx"].now != pv.Get("cx") || got["cy"].now != pv.Get("cy") {
			t.Fatalf("app %d: all reports %v, want cx and cy as in %v", a.ID, got, pv)
		}
		if got := since(a, false); len(got) != 0 {
			t.Fatalf("app %d: a second call reports %v, want nothing", a.ID, got)
		}
	}

	// A second preemptible application on cx changes the idle share there
	// and nowhere else. Its new walk slot recomputes cy's walk too, so cy
	// may come as a new object, of the same value.
	_, before := idle.Views()
	s.AddApp(3, 2).P.Add(request.New(2, 3, "cx", 2, 10, request.Preempt, request.Free, nil))
	s.MarkAppDirty(3)
	s.Schedule(1)
	got := since(idle, false)
	if got["cx"].was != before.Get("cx") || got["cx"].now.Equal(got["cx"].was) {
		t.Fatalf("a change on cx reports %v to the idle application, want cx changed from %v", got, before.Get("cx"))
	}
	if cy, ok := got["cy"]; ok && (cy.was != before.Get("cy") || !cy.now.Equal(cy.was)) {
		t.Fatalf("a change on cx reports cy %v to the idle application, want its value held at %v", cy, before.Get("cy"))
	}
	if got := since(idle, false); len(got) != 0 {
		t.Fatalf("a second call reports %v, want nothing", got)
	}

	// At the same instant, a dropped cluster is reported once as gone, a
	// gained one as new. A structural round recomputes every walk, so cx
	// may come as a new object, of the same value.
	_, mid := idle.Views()
	wasCy := mid.Get("cy")
	s.RemoveCluster("cy")
	s.Schedule(1)
	got = since(idle, false)
	if got["cy"].was != wasCy || got["cy"].now != nil {
		t.Fatalf("after cy left: %v, want cy gone from %v", got, wasCy)
	}
	if cx, ok := got["cx"]; len(got) > 2 || ok && !cx.was.Equal(cx.now) {
		t.Fatalf("after cy left: %v, want cx unchanged", got)
	}
	if got := since(idle, false); len(got) != 0 {
		t.Fatalf("a gone cluster reported again: %v", got)
	}
	s.AddCluster("cy", 8)
	s.Schedule(1)
	if got := since(idle, false); got["cy"].was != nil || got["cy"].now.IsZero() {
		t.Fatalf("after cy came back: %v, want cy new", got)
	}
}
