package rms

import (
	"math"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

const (
	cA = view.ClusterID("alpha")
	cB = view.ClusterID("beta")
)

func newTwoClusterServer() (*sim.Engine, *Server) {
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{cA: 8, cB: 4},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
	})
	return e, s
}

func TestMultiClusterIndependentAllocation(t *testing.T) {
	e, s := newTwoClusterServer()
	app := &testApp{}
	app.sess = connect(s, app)
	ida, err := submit(app.sess, RequestSpec{Cluster: cA, N: 8, Duration: 1000, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	idb, err := submit(app.sess, RequestSpec{Cluster: cB, N: 4, Duration: 1000, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v", app.starts)
	}
	// Full allocation on both clusters simultaneously: capacity is
	// per-cluster, not global.
	for _, st := range app.starts {
		switch st.id {
		case ida:
			if len(st.ids) != 8 {
				t.Errorf("alpha allocation = %v", st.ids)
			}
		case idb:
			if len(st.ids) != 4 {
				t.Errorf("beta allocation = %v", st.ids)
			}
		}
	}
}

func TestMultiClusterViewsPerCluster(t *testing.T) {
	e, s := newTwoClusterServer()
	holder := &testApp{}
	holder.sess = connect(s, holder)
	_, _ = submit(holder.sess, RequestSpec{Cluster: cA, N: 6, Duration: 1000, Type: request.NonPreempt})
	e.Run(3)

	watcher := &testApp{}
	watcher.sess = connect(s, watcher)
	e.Run(6)
	np, _ := watcher.lastViews(t)
	if got := np.Get(cA).Value(s.Now()); got != 2 {
		t.Errorf("alpha availability = %d, want 2", got)
	}
	if got := np.Get(cB).Value(s.Now()); got != 4 {
		t.Errorf("beta availability = %d, want 4 (untouched)", got)
	}
}

// TestPushesNameEveryCluster pins the server's half of the OnViews contract:
// a push's non-preemptive view names every cluster the server holds right
// now — a fully booked one with the zero profile — and so does the
// preemptive segment of a session's first push and of its first push after a
// detach or an attach. Any other preemptive segment names exactly the
// clusters whose profile changed, a cluster that became fully booked with
// the zero profile.
func TestPushesNameEveryCluster(t *testing.T) {
	e, s := newTwoClusterServer()
	holder := &testApp{}
	holder.sess = connect(s, holder)
	if _, err := submit(holder.sess, RequestSpec{Cluster: cB, N: 4, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	watcher := &testApp{}
	watcher.sess = connect(s, watcher)
	named := func(v view.View, want ...view.ClusterID) bool {
		if v.Len() != len(want) {
			return false
		}
		for _, cid := range want {
			if _, ok := v.Lookup(cid); !ok {
				return false
			}
		}
		return true
	}
	names := func(what string, np []view.ClusterID, p ...view.ClusterID) {
		t.Helper()
		last := watcher.views[len(watcher.views)-1]
		if !named(last.np, np...) || !named(last.p, p...) {
			t.Fatalf("%s: push names np %v, p %v; want np %v, p %v", what, last.np, last.p, np, p)
		}
	}
	book := func(cid view.ClusterID, n int) {
		t.Helper()
		if _, err := submit(holder.sess, RequestSpec{Cluster: cid, N: n, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(3)
	both := []view.ClusterID{cA, cB}
	names("first push", both, cA, cB)
	if np, p := watcher.lastViews(t); !np.Get(cB).IsZero() || !p.Get(cB).IsZero() {
		t.Fatalf("booked beta reads np %v, p %v, want the zero profile", np.Get(cB), p.Get(cB))
	}

	snap, err := s.DetachCluster(cB)
	if err != nil {
		t.Fatal(err)
	}
	book(cA, 2)
	e.Run(6)
	names("after the detach", []view.ClusterID{cA}, cA)

	if err := s.AttachCluster(snap, nil); err != nil {
		t.Fatal(err)
	}
	book(cA, 2)
	e.Run(9)
	names("after the attach", both, cA, cB)

	pushes := len(watcher.views)
	book(cA, 1)
	e.Run(12)
	names("a change on alpha", both, cA)
	book(cA, 3)
	e.Run(15)
	names("alpha booked", both, cA)
	if got := watcher.views[len(watcher.views)-1].p.Get(cA); !got.IsZero() {
		t.Fatalf("booked alpha's segment reads %v, want the zero profile", got)
	}
	if got := len(watcher.views) - pushes; got != 2 {
		t.Fatalf("%d pushes for two changes, want 2", got)
	}
}

// TestIdleSessionsShareSegment: sessions shown the same hypothetical share
// are handed one preemptive segment, naming the one cluster that changed.
func TestIdleSessionsShareSegment(t *testing.T) {
	e, s := newTwoClusterServer()
	runner := &testApp{}
	runner.sess = connect(s, runner)
	idle := make([]*testApp, 4)
	for i := range idle {
		idle[i] = &testApp{}
		idle[i].sess = connect(s, idle[i])
	}
	e.Run(3)
	if _, err := submit(runner.sess, RequestSpec{Cluster: cA, N: 3, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(6)
	first := idle[0].views[len(idle[0].views)-1].p
	if _, ok := first.Lookup(cA); !ok || first.Len() != 1 {
		t.Fatalf("an idle session's segment names %v, want alpha alone", first)
	}
	for i, a := range idle {
		if got := a.views[len(a.views)-1].p; !view.Same(got, first) {
			t.Fatalf("idle session %d was handed %v, session 0 another map %v", i, got, first)
		}
	}
}

func TestMultiClusterPreemptibleIsolation(t *testing.T) {
	// A preemptible app on beta must be unaffected by non-preemptible load
	// on alpha.
	e, s := newTwoClusterServer()
	p := &testApp{}
	p.sess = connect(s, p)
	pid, _ := submit(p.sess, RequestSpec{Cluster: cB, N: 4, Duration: math.Inf(1), Type: request.Preempt})
	e.Run(3)

	r := &testApp{}
	r.sess = connect(s, r)
	_, _ = submit(r.sess, RequestSpec{Cluster: cA, N: 8, Duration: 100, Type: request.NonPreempt})
	e.Run(6)

	var held []int
	for _, st := range p.starts {
		if st.id == pid {
			held = st.ids
		}
	}
	if len(held) != 4 {
		t.Fatalf("preemptible allocation on beta = %v", held)
	}
	// No revocation: the preemptive view on beta is still 4.
	_, pv := p.lastViews(t)
	if got := pv.Get(cB).Value(s.Now()); got != 4 {
		t.Errorf("beta preemptive view = %d, want 4", got)
	}
}

func TestMultiClusterCoallocAcrossClusters(t *testing.T) {
	// COALLOC constrains start times, not clusters: an application can
	// co-allocate resources on two clusters (same start).
	e, s := newTwoClusterServer()
	app := &testApp{}
	app.sess = connect(s, app)
	ra, err := submit(app.sess, RequestSpec{Cluster: cA, N: 4, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := submit(app.sess, RequestSpec{Cluster: cB, N: 2, Duration: 100,
		Type: request.NonPreempt, RelatedHow: request.Coalloc, RelatedTo: ra})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if len(app.starts) != 2 {
		t.Fatalf("starts = %v", app.starts)
	}
	_ = rb
}
