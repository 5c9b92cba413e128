package rms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// hostileApp records what the server told it and nothing else: it never
// cooperates with preemption and never tracks which IDs are still valid.
type hostileApp struct {
	sess   *Session
	ids    []request.ID // every request ID the server acknowledged
	nodes  []int        // every node ID a start ever delivered
	killed bool
}

func (a *hostileApp) OnViews(_, _ view.View) {}
func (a *hostileApp) OnKill(string)          { a.killed = true }
func (a *hostileApp) OnStart(_ request.ID, nodeIDs []int) {
	a.nodes = append(a.nodes, nodeIDs...)
}

// hostileRun throws 200 random protocol-level operations at a fresh server
// — anything a socket client can send: requests of any type with node
// counts up to 2^40 and durations from 1e-12 s to +Inf, NEXT/COALLOC
// relations to any earlier request of any type on any cluster (or to IDs
// that never existed), done() with arbitrary released node IDs, reconnects —
// interleaved with clock advances. It returns the first accounting
// violation: CheckInvariants after every operation, and every node back in
// its pool once every session has disconnected.
func hostileRun(seed int64) error {
	clusters := map[view.ClusterID]int{"x": 4, "y": 8}
	names := []view.ClusterID{"x", "y", "nowhere"}
	types := []request.Type{request.PreAlloc, request.NonPreempt, request.Preempt}
	hows := []request.Relation{request.Free, request.Free, request.Next, request.Next, request.Coalloc}
	durations := []float64{1e-12, 1e-3, 1, 1, 10, 100, 1e300, math.Inf(1)}
	advances := []float64{0, 1e-9, 0.5, 1, 1, 3, 50}

	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	s := NewServer(Config{Clusters: clusters, ReschedInterval: 1, Clock: clock.SimClock{E: e}})
	apps := make([]*hostileApp, 2)
	for i := range apps {
		apps[i] = &hostileApp{}
		apps[i].sess = connect(s, apps[i])
	}
	for op := 0; op < 200; op++ {
		a := apps[rng.Intn(len(apps))]
		what := ""
		switch k := rng.Intn(10); {
		case k < 5:
			cid := names[rng.Intn(len(names))]
			n := 1 + rng.Intn(clusters[cid]+2)
			if rng.Intn(20) == 0 {
				n = 1 << 40
			}
			spec := RequestSpec{
				Cluster: cid, N: n, Duration: durations[rng.Intn(len(durations))],
				Type: types[rng.Intn(len(types))], RelatedHow: hows[rng.Intn(len(hows))],
			}
			if len(a.ids) > 0 {
				spec.RelatedTo = a.ids[rng.Intn(len(a.ids))]
			} else {
				spec.RelatedTo = request.ID(rng.Intn(5))
			}
			what = fmt.Sprintf("app %d request %+v", a.sess.AppID(), spec)
			if id, err := submit(a.sess, spec); err == nil {
				a.ids = append(a.ids, id)
			}
		case k < 7:
			id := request.ID(rng.Intn(10))
			if len(a.ids) > 0 && rng.Intn(8) > 0 {
				id = a.ids[rng.Intn(len(a.ids))]
			}
			var released []int
			for i := rng.Intn(4); i > 0; i-- {
				if len(a.nodes) > 0 && rng.Intn(4) > 0 {
					released = append(released, a.nodes[rng.Intn(len(a.nodes))])
				} else {
					released = append(released, rng.Intn(12)-2)
				}
			}
			what = fmt.Sprintf("app %d done(%d, %v)", a.sess.AppID(), id, released)
			_ = a.sess.Done(id, released)
		case k < 9:
			dt := advances[rng.Intn(len(advances))]
			what = fmt.Sprintf("advance %g", dt)
			e.Run(e.Now() + dt)
		default:
			if a.killed || rng.Intn(4) == 0 {
				what = fmt.Sprintf("app %d reconnects", a.sess.AppID())
				a.sess.Disconnect()
				*a = hostileApp{}
				a.sess = connect(s, a)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d (%s): %w", op, what, err)
		}
	}
	e.Run(e.Now() + 1000)
	if err := s.CheckInvariants(); err != nil {
		return fmt.Errorf("after the drain: %w", err)
	}
	for _, a := range apps {
		a.sess.Disconnect()
	}
	e.Run(e.Now() + 10)
	if err := s.CheckInvariants(); err != nil {
		return fmt.Errorf("after disconnecting: %w", err)
	}
	for cid, n := range clusters {
		if free := s.pools[cid].available(); free != n {
			return fmt.Errorf("cluster %q has %d of %d nodes free after every session left", cid, free, n)
		}
	}
	return nil
}

// TestHostileClientKeepsInvariants: no seed of hostileRun may break the
// server's accounting or panic it. The seeds run in parallel blocks to stay
// under two seconds with the race detector on.
//
// Before the two NEXT hand-over fixes pinned below (TestNextHandOverTypeMatrix,
// TestZeroGrantNextChildClearsParent) 66 of the 300 seeds failed: 5 15 31 41
// 46 50 51 53 54 55 56 59 60 61 69 75 86 93 95 105 108 114 117 123 128 130
// 132 140 141 142 144 145 147 149 151 156 158 159 161 165 166 168 173 174
// 180 181 182 183 190 199 201 205 215 218 223 226 237 238 252 262 274 275
// 281 288 291 293. 20,000 further seeds found nothing else.
func TestHostileClientKeepsInvariants(t *testing.T) {
	const seeds, block = 300, 50
	for lo := int64(0); lo < seeds; lo += block {
		t.Run(fmt.Sprintf("seeds=%d-%d", lo, lo+block-1), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed < lo+block; seed++ {
				if err := hostileRun(seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestNextHandOverTypeMatrix: a finished parent's node IDs are parked only
// while a NEXT child can still take them, and go back to the pool
// otherwise — whatever sets parent and child live in, and whether the child
// can ever start (N=2) or not (N=8 on 4 nodes). Cross-set chains used to
// leak the parent's IDs for good when the parent was reaped from its own
// set.
func TestNextHandOverTypeMatrix(t *testing.T) {
	types := []request.Type{request.PreAlloc, request.NonPreempt, request.Preempt}
	for _, parent := range types {
		for _, child := range types {
			for _, childN := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s→%s/n=%d", parent, child, childN), func(t *testing.T) {
					e, s := newTestServer(4)
					app := &testApp{}
					app.sess = connect(s, app)
					first, err := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 100, Type: parent})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: childN, Duration: 10, Type: child,
						RelatedHow: request.Next, RelatedTo: first}); err != nil {
						t.Fatal(err)
					}
					for _, until := range []float64{50, 100, 101, 150, 1000} {
						e.Run(until)
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("t=%g: %v", until, err)
						}
					}
					if app.killed != "" {
						t.Fatalf("killed: %s", app.killed)
					}
					app.sess.Disconnect()
					if free := s.pools[c0].available(); free != 4 {
						t.Fatalf("%d of 4 nodes free after disconnect", free)
					}
				})
			}
		}
	}
}

// TestZeroGrantNextChildClearsParent: a NEXT child that starts with a zero
// grant (a preemptible request squeezed out entirely) returns all of its
// parent's parked IDs to the pool, so the parent must stop listing them —
// a second NEXT child of the same parent used to inherit them again, on top
// of their new owners.
func TestZeroGrantNextChildClearsParent(t *testing.T) {
	e, s := newTestServer(8)
	app := &testApp{}
	app.sess = connect(s, app)
	for _, spec := range []RequestSpec{
		{Cluster: c0, N: 4, Duration: 1, Type: request.NonPreempt},
		{Cluster: c0, N: 9, Duration: 100, Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: 1},
		{Cluster: c0, N: 9, Duration: 1, Type: request.Preempt, RelatedHow: request.Next, RelatedTo: 1},
		{Cluster: c0, N: 4, Duration: 1e300, Type: request.PreAlloc},
	} {
		if _, err := submit(app.sess, spec); err != nil {
			t.Fatal(err)
		}
	}
	for now := 0.0; now <= 120; now++ {
		e.Run(now)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("t=%g: %v", now, err)
		}
	}
	for _, st := range app.starts {
		seen := map[int]bool{}
		for _, id := range st.ids {
			if seen[id] {
				t.Errorf("request %d started on %v: node %d twice", st.id, st.ids, id)
			}
			seen[id] = true
		}
	}
	app.sess.Disconnect()
	if free := s.pools[c0].available(); free != 8 {
		t.Fatalf("%d of 8 nodes free after disconnect", free)
	}
}
