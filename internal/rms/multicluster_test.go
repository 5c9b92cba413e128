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
// every push names every cluster the server holds right now — a fully booked
// one with the zero profile — and follows a detach and an attach.
func TestPushesNameEveryCluster(t *testing.T) {
	e, s := newTwoClusterServer()
	holder := &testApp{}
	holder.sess = connect(s, holder)
	if _, err := submit(holder.sess, RequestSpec{Cluster: cB, N: 4, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	watcher := &testApp{}
	watcher.sess = connect(s, watcher)
	names := func(what string, want ...view.ClusterID) {
		t.Helper()
		np, p := watcher.lastViews(t)
		for _, got := range []view.View{np, p} {
			if len(got) != len(want) {
				t.Fatalf("%s: push names %v, want %v", what, got, want)
			}
			for _, cid := range want {
				if _, ok := got[cid]; !ok {
					t.Fatalf("%s: push names %v, want %v", what, got, want)
				}
			}
		}
	}
	e.Run(3)
	names("booked beta", cA, cB)
	if np, _ := watcher.lastViews(t); !np[cB].IsZero() {
		t.Fatalf("booked beta reads %v, want the zero profile", np[cB])
	}

	snap, err := s.DetachCluster(cB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(holder.sess, RequestSpec{Cluster: cA, N: 2, Duration: 1000, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(6)
	names("after the detach", cA)

	if err := s.AttachCluster(snap, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(holder.sess, RequestSpec{Cluster: cA, N: 2, Duration: 1000, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(9)
	names("after the attach", cA, cB)
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
