package rms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// pushRecorder is a passive AppHandler that keeps its last push, the pair
// its pushes add up to, and counts them.
type pushRecorder struct {
	calls int
	np, p view.View // the last push's segments
	wp    view.View // every preemptive segment patched in, in order
}

func (r *pushRecorder) OnViews(np, p view.View) {
	r.calls, r.np, r.p = r.calls+1, np, p
	if r.wp == nil {
		r.wp = view.New()
	}
	patch(r.wp, p)
}
func (r *pushRecorder) OnStart(request.ID, []int) {}
func (r *pushRecorder) OnKill(string)             {}

// patch applies a pushed segment to acc, a map its caller owns, as a
// handler that keeps whole views does: a named profile replaces acc's, a
// named zero removes the cluster, a cluster seg does not name keeps its
// profile. It returns acc.
func patch(acc, seg view.View) view.View {
	for cid, f := range seg.All() {
		acc.Set(cid, f)
	}
	return acc
}

// pushTwin drives an incremental server ([0]) and its full-recompute twin
// ([1]) through the same operations on one simulated clock. A round runs only
// when the driver asks for one (the rescheduling interval is out of reach),
// so every round is followed by the oracle check:
//   - each application was pushed as often on both servers, and its last
//     push names the same clusters with the same profiles on both — the
//     twin's scheduler hands over fresh maps and fragments every round, so
//     it trims, completes and compares everything;
//   - on each server, every live session's pushes add up to the whole views
//     the scheduler holds: the last non-preemptive view equals the
//     scheduler's trimmed at the round's instant, and the patched preemptive
//     one its preemptive view at every cluster of the server;
//   - the scheduler's preemptive fragments are trimmed at that instant.
type pushTwin struct {
	t    *testing.T
	e    *sim.Engine
	srv  [2]*Server
	apps [2][]*pushRecorder
	sess [2][]*Session
	ids  [][]request.ID // per application, in submission order (equal on both)
	snap [2]*ClusterSnapshot
}

const pushApps = 4

func newPushTwin(t *testing.T, clip view.View) *pushTwin {
	tw := &pushTwin{t: t, e: sim.NewEngine(), ids: make([][]request.ID, pushApps)}
	for k := range tw.srv {
		s := NewServer(Config{
			Clusters:        map[view.ClusterID]int{cA: 8, cB: 4},
			ReschedInterval: 1e9,
			Clock:           clock.SimClock{E: tw.e},
			Clip:            clip,
			FullRecompute:   k == 1,
		})
		s.ScheduleNow() // from now on a timer-armed round is 1e9 s away
		for i := 0; i < pushApps; i++ {
			r := &pushRecorder{}
			tw.apps[k] = append(tw.apps[k], r)
			tw.sess[k] = append(tw.sess[k], connect(s, r))
		}
		tw.srv[k] = s
	}
	return tw
}

// round runs one round on both servers and checks the oracle.
func (tw *pushTwin) round() {
	tw.t.Helper()
	for _, s := range tw.srv {
		s.ScheduleNow()
	}
	now := tw.e.Now()
	for i := range tw.apps[0] {
		inc, full := tw.apps[0][i], tw.apps[1][i]
		if inc.calls != full.calls {
			tw.t.Fatalf("t=%g app %d: %d pushes, the full-recompute twin %d", now, i, inc.calls, full.calls)
		}
		if !sameNames(inc.np, full.np) || !inc.np.Equal(full.np) || !sameNames(inc.p, full.p) || !inc.p.Equal(full.p) {
			tw.t.Fatalf("t=%g app %d was last pushed\n np %v\n p  %v\nthe full-recompute twin\n np %v\n p  %v",
				now, i, inc.np, inc.p, full.np, full.p)
		}
	}
	for k, s := range tw.srv {
		s.mu.Lock()
		for i, sess := range tw.sess[k] {
			if s.sessions[sess.AppID()] != sess {
				continue // torn down
			}
			r := tw.apps[k][i]
			npv, pv := sess.app.Views()
			wnp := npv.TrimBefore(now)
			for cid := range s.pools {
				if !r.np.Get(cid).Equal(wnp.Get(cid)) || !r.wp.Get(cid).Equal(pv.Get(cid)) {
					s.mu.Unlock()
					tw.t.Fatalf("t=%g server %d app %d at %s: the pushes add up to\n np %v\n p  %v\nthe scheduler holds\n np %v\n p  %v",
						now, k, i, cid, r.np, r.wp, wnp, pv)
				}
			}
			for cid, f := range pv.All() {
				if f.NextBreakpoint(0) <= now {
					s.mu.Unlock()
					tw.t.Fatalf("t=%g server %d app %d: the preemptive fragment at %s is not trimmed: %v", now, k, i, cid, f)
				}
			}
		}
		s.mu.Unlock()
	}
}

// sameNames reports whether two pushed views name the same clusters.
func sameNames(a, b view.View) bool {
	if a.Len() != b.Len() {
		return false
	}
	for cid := range a.All() {
		if _, ok := b.Lookup(cid); !ok {
			return false
		}
	}
	return true
}

// advance moves the clock by d, firing any timer due (none runs a round).
func (tw *pushTwin) advance(d float64) { tw.e.Run(tw.e.Now() + d) }

// request submits the same request on both servers; both must agree.
func (tw *pushTwin) request(app int, spec RequestSpec) {
	tw.t.Helper()
	var ids [2]request.ID
	var errs [2]error
	for k := range tw.srv {
		ids[k], errs[k] = submit(tw.sess[k][app], spec)
	}
	if ids[0] != ids[1] || (errs[0] == nil) != (errs[1] == nil) {
		tw.t.Fatalf("request %+v: %d, %v on the incremental server, %d, %v on its twin", spec, ids[0], errs[0], ids[1], errs[1])
	}
	if errs[0] == nil {
		tw.ids[app] = append(tw.ids[app], ids[0])
	}
}

func (tw *pushTwin) done(app int, id request.ID) {
	tw.t.Helper()
	e0, e1 := tw.sess[0][app].Done(id, nil), tw.sess[1][app].Done(id, nil)
	if (e0 == nil) != (e1 == nil) {
		tw.t.Fatalf("done(%d): %v on the incremental server, %v on its twin", id, e0, e1)
	}
}

// connect connects a new application to both servers: its first push comes
// with the next round.
func (tw *pushTwin) connect() {
	for k, s := range tw.srv {
		r := &pushRecorder{}
		tw.apps[k] = append(tw.apps[k], r)
		tw.sess[k] = append(tw.sess[k], connect(s, r))
	}
	tw.ids = append(tw.ids, nil)
}

// teardown disconnects an application from both servers; nothing is pushed
// to it afterwards, and its later calls fail on both.
func (tw *pushTwin) teardown(app int) {
	for k := range tw.srv {
		tw.sess[k][app].Disconnect()
	}
}

// detachOrAttach moves beta out of both servers, or back in. A detach
// hands every application the segment a federation hands it for a cluster
// that left its shard: beta with the zero profile.
func (tw *pushTwin) detachOrAttach() {
	tw.t.Helper()
	for k, s := range tw.srv {
		if tw.snap[k] == nil {
			snap, err := s.DetachCluster(cB)
			if err != nil {
				tw.t.Fatal(err)
			}
			tw.snap[k] = snap
			for _, r := range tw.apps[k] {
				if r.wp != nil {
					r.wp.Set(cB, stepfunc.Zero())
				}
			}
		} else {
			if err := s.AttachCluster(tw.snap[k], nil); err != nil {
				tw.t.Fatal(err)
			}
			tw.snap[k] = nil
		}
	}
}

// run interprets a byte program, one operation per byte plus its operand
// bytes (missing operands read as zero): request, done, advance then round,
// round, and a detach or attach of beta, a connect or a teardown. A final
// round checks the end state.
func (tw *pushTwin) run(prog []byte) {
	tw.t.Helper()
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for len(prog) > 0 {
		switch op := next(); op % 6 {
		case 0, 1: // request
			app, kind, shape := next()%len(tw.ids), next(), next()
			spec := RequestSpec{
				Cluster:  []view.ClusterID{cA, cB}[kind&1],
				N:        1 + shape%5,
				Type:     []request.Type{request.PreAlloc, request.NonPreempt, request.Preempt}[(kind>>1)%3],
				Duration: []float64{3, 7.5, 20, math.Inf(1)}[(shape>>3)%4],
			}
			if ids := tw.ids[app]; len(ids) > 0 && kind&0x40 != 0 {
				spec.RelatedHow = []request.Relation{request.Next, request.Coalloc}[(kind>>7)&1]
				spec.RelatedTo = ids[len(ids)-1]
			}
			tw.request(app, spec)
		case 2: // done
			app, pick := next()%len(tw.ids), next()
			if ids := tw.ids[app]; len(ids) > 0 {
				tw.done(app, ids[pick%len(ids)])
			}
		case 3: // the clock moves, possibly across breakpoints, then a round
			tw.advance(float64(next()%64) / 4)
			tw.round()
		case 4: // a round at the same instant
			tw.round()
		case 5:
			switch {
			case op < 128:
				tw.detachOrAttach()
			case op < 192:
				tw.connect()
			default:
				tw.teardown(next() % len(tw.ids))
			}
		}
	}
	tw.round()
}

// pushClip limits non-preemptive views with breakpoints no request causes:
// alpha alternates between 8 and 5 nodes every 7 s for 100 s.
func pushClip() view.View {
	var steps []stepfunc.Step
	for i := 0; i < 14; i++ {
		steps = append(steps, stepfunc.Step{Duration: 7, N: 8 - 3*(i%2)})
	}
	steps = append(steps, stepfunc.Step{Duration: math.Inf(1), N: 8})
	return view.View{cA: stepfunc.FromSteps(steps...), cB: stepfunc.Constant(4)}
}

// TestPushMatchesFullRecompute drives random request/done/clock churn, a
// detach/attach pair and applications connecting and leaving through an
// incremental server and its full-recompute twin: after every round each
// application holds the same views on both, pushed as often.
func TestPushMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 600)
			rng.Read(prog)
			for _, clip := range []view.View{nil, pushClip()} {
				newPushTwin(t, clip).run(prog)
			}
		})
	}
}

// TestPushFollowsTrimHorizon: the session's view maps stay the same objects
// while only the clock moves, so a push that is due because the clock
// crossed a breakpoint of the clip comes from the horizon check alone.
func TestPushFollowsTrimHorizon(t *testing.T) {
	clip := view.View{cA: stepfunc.FromSteps(stepfunc.Step{Duration: 5, N: 4}, stepfunc.Step{Duration: math.Inf(1), N: 8}), cB: stepfunc.Constant(4)}
	tw := newPushTwin(t, clip)
	pushes := func(want int) {
		t.Helper()
		for k := range tw.srv {
			if got := tw.apps[k][0].calls; got != want {
				t.Fatalf("t=%g: server %d pushed %d times, want %d", tw.e.Now(), k, got, want)
			}
		}
	}
	tw.round()
	pushes(1)
	tw.advance(2)
	tw.round()
	pushes(1)
	tw.advance(4) // t=6: across the clip's breakpoint at 5
	tw.round()
	pushes(2)
	if got := tw.apps[0][0].np.Get(cA); !got.Equal(stepfunc.Constant(8)) {
		t.Fatalf("alpha past the breakpoint reads %v, want constant 8", got)
	}
	tw.advance(1)
	tw.round()
	pushes(2)
}

// FuzzViewPush runs byte programs against an incremental server and its
// full-recompute twin under the same oracle as TestPushMatchesFullRecompute.
func FuzzViewPush(f *testing.F) {
	f.Add([]byte{0, 2, 9, 3, 20, 4, 1, 0x43, 9, 3, 40, 5, 3, 30, 5, 2, 0, 1, 3, 60})
	f.Add([]byte{1, 1, 7, 3, 9, 0, 0x42, 24, 3, 28, 5, 0, 3, 17, 3, 200, 5})
	// Beta is detached under a non-preemptible request that fills it; the
	// preemptive half keeps its value across the detach, and the push the
	// clip's next breakpoint causes must name alpha alone.
	f.Add([]byte("009X90A9A90"))
	// A connect and the new application's first push, a request of its own
	// that takes alpha's nodes for ever, and a teardown of an application
	// running on the node left.
	f.Add([]byte{0x83, 4, 0, 4, 2, 24, 4, 0, 0, 2, 40, 4, 0xC5, 0, 4, 3, 8})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2000 {
			prog = prog[:2000]
		}
		newPushTwin(t, pushClip()).run(prog)
	})
}

// TestTrimSharesProfilesAcrossSessions: sessions whose ¬P views are
// distinct maps sharing the free-space profile of a cluster none of them
// requests hold one trimmed object for it after a push, not one copy each;
// and a trim asked for at a later instant, outside any push, is that
// instant's.
func TestTrimSharesProfilesAcrossSessions(t *testing.T) {
	const k = 8
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{cA: k, cB: 4},
		ReschedInterval: 1e9,
		Clock:           clock.SimClock{E: e},
	})
	// The holder comes first in CBF order, so the others meet beta's
	// profile with its allocation subtracted.
	holder := connect(s, &pushRecorder{})
	apps := make([]*pushRecorder, k)
	for i := range apps {
		apps[i] = &pushRecorder{}
		if _, err := submit(connect(s, apps[i]), RequestSpec{Cluster: cA, N: 1, Duration: 1000, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	s.ScheduleNow()
	e.Run(2)
	// The holder's allocation puts a breakpoint at 2 in beta's free space,
	// so every session's view of beta needs trimming at 2.
	if _, err := submit(holder, RequestSpec{Cluster: cB, N: 2, Duration: 100, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	calls := apps[0].calls
	s.ScheduleNow()
	want := stepfunc.FromSteps(stepfunc.Step{Duration: 102, N: 2}, stepfunc.Step{Duration: math.Inf(1), N: 4})
	first := apps[0].np[cB]
	for i, a := range apps {
		if a.calls != calls+1 {
			t.Fatalf("app %d: %d pushes, want %d", i, a.calls, calls+1)
		}
		if got := a.np[cB]; got != first || !got.Equal(want) {
			t.Fatalf("app %d holds beta %v at %p, app 0 %v at %p; want one object %v", i, got, got, first, first, want)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.sessions[s.sched.Apps()[1].ID].np.src
	if src.Get(cB) == first {
		t.Fatalf("the scheduler's view already holds beta trimmed: %v", src)
	}
	for _, at := range []float64{110, 2} {
		got := s.trimLocked(src, at)
		if w := src.TrimBefore(at).Get(cB); !got.Get(cB).Equal(w) || len(got) != 2 {
			t.Fatalf("trimLocked at %g outside a push gave %v, want beta %v", at, got, w)
		}
	}
}
