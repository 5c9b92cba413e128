package rms

import (
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// chaosApp performs random protocol-legal operations: it submits random
// requests (pre-allocations, non-preemptible inside them, preemptible),
// randomly updates and finishes them, and always cooperates with
// preemption. The stress test asserts global invariants that must hold for
// ANY workload: node-ID conservation, no double allocation, and no
// cooperative kill.
type chaosApp struct {
	t    *testing.T
	rng  *rand.Rand
	e    *sim.Engine
	sess *Session

	pa      request.ID
	paN     int
	np      request.ID
	npN     int
	npIDs   []int
	preempt request.ID
	pIDs    []int

	killed bool
}

func (a *chaosApp) OnViews(_, p view.View) {
	if a.killed || a.preempt == 0 {
		return
	}
	// Cooperate: if the preemptive view dropped below the holding, release
	// immediately.
	avail := p.Get(c0).Value(a.e.Now())
	if avail < 0 {
		avail = 0
	}
	if avail < len(a.pIDs) {
		rel := a.pIDs[avail:]
		if avail == 0 {
			if err := a.sess.Done(a.preempt, nil); err == nil {
				a.preempt = 0
				a.pIDs = nil
			}
			return
		}
		next, err := a.sess.Request(RequestSpec{
			Cluster: c0, N: avail, Duration: math.Inf(1),
			Type: request.Preempt, RelatedHow: request.Next, RelatedTo: a.preempt,
		})
		if err != nil {
			return
		}
		if err := a.sess.Done(a.preempt, rel); err != nil {
			return
		}
		a.preempt = next
		a.pIDs = a.pIDs[:avail]
	}
}

func (a *chaosApp) OnStart(id request.ID, ids []int) {
	switch id {
	case a.np:
		a.npIDs = ids
	case a.preempt:
		a.pIDs = ids
	}
}

func (a *chaosApp) OnKill(reason string) {
	a.killed = true
	a.t.Errorf("cooperative app killed: %s", reason)
}

// act performs one random operation.
func (a *chaosApp) act() {
	if a.killed {
		return
	}
	switch a.rng.Intn(6) {
	case 0: // (re-)establish a pre-allocation with an allocation inside
		if a.pa != 0 {
			return
		}
		a.paN = 1 + a.rng.Intn(6)
		pa, err := a.sess.Request(RequestSpec{Cluster: c0, N: a.paN, Duration: 200 + a.rng.Float64()*400, Type: request.PreAlloc})
		if err != nil {
			return
		}
		n := 1 + a.rng.Intn(a.paN)
		np, err := a.sess.Request(RequestSpec{Cluster: c0, N: n, Duration: 100 + a.rng.Float64()*200,
			Type: request.NonPreempt, RelatedHow: request.Coalloc, RelatedTo: pa})
		if err != nil {
			return
		}
		a.pa, a.np, a.npN = pa, np, n

	case 1: // spontaneous update inside the pre-allocation
		if a.np == 0 || len(a.npIDs) == 0 {
			return
		}
		want := 1 + a.rng.Intn(a.paN)
		next, err := a.sess.Request(RequestSpec{Cluster: c0, N: want, Duration: 100 + a.rng.Float64()*200,
			Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: a.np})
		if err != nil {
			return
		}
		var rel []int
		if want < len(a.npIDs) {
			rel = a.npIDs[want:]
		}
		if err := a.sess.Done(a.np, rel); err != nil {
			a.t.Errorf("done(np): %v", err)
			return
		}
		a.np, a.npN = next, want
		a.npIDs = nil

	case 2: // finish the allocation chain
		if a.np == 0 {
			return
		}
		_ = a.sess.Done(a.np, nil)
		if a.pa != 0 {
			_ = a.sess.Done(a.pa, nil)
		}
		a.pa, a.np, a.npIDs = 0, 0, nil

	case 3: // open a preemptible request
		if a.preempt != 0 {
			return
		}
		id, err := a.sess.Request(RequestSpec{Cluster: c0, N: 1 + a.rng.Intn(8),
			Duration: math.Inf(1), Type: request.Preempt})
		if err != nil {
			return
		}
		a.preempt = id

	case 4: // close the preemptible request
		if a.preempt == 0 {
			return
		}
		_ = a.sess.Done(a.preempt, nil)
		a.preempt = 0
		a.pIDs = nil

	case 5: // submit a standalone rigid request (implicit wrapping path)
		_, _ = a.sess.Request(RequestSpec{Cluster: c0, N: 1 + a.rng.Intn(4),
			Duration: 50 + a.rng.Float64()*100, Type: request.NonPreempt})
	}
}

// TestStressInvariants drives several chaotic-but-cooperative applications
// through thousands of random operations and asserts node-ID conservation
// at every step. The idPool's internal panics (double free, over-alloc)
// and the metrics monotonicity panic act as additional tripwires.
func TestStressInvariants(t *testing.T) {
	const capacity = 24
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		e, s := newTestServer(capacity)
		rng := rand.New(rand.NewSource(seed))

		apps := make([]*chaosApp, 4)
		for i := range apps {
			a := &chaosApp{t: t, rng: rand.New(rand.NewSource(seed*100 + int64(i))), e: e}
			a.sess = s.Connect(a)
			apps[i] = a
		}

		checkConservation := func() {
			held := 0
			for _, sess := range s.sessions {
				for _, r := range sess.app.Requests() {
					held += len(r.NodeIDs)
				}
			}
			free := s.pools[c0].available()
			// IDs parked on finished requests awaiting a NEXT hand-over
			// stay on those requests, so held + free always covers the
			// whole pool.
			if held+free != capacity {
				t.Fatalf("seed %d t=%.1f: node conservation violated: held %d + free %d != %d",
					seed, e.Now(), held, free, capacity)
			}
			if free < 0 || held < 0 {
				t.Fatalf("seed %d: negative pools", seed)
			}
		}

		for round := 0; round < 400; round++ {
			a := apps[rng.Intn(len(apps))]
			a.act()
			e.Run(e.Now() + rng.Float64()*10)
			checkConservation()
		}
		e.Run(e.Now() + 2000) // drain: everything finite expires
		checkConservation()
	}
}

// TestStressNoOverlappingNodeIDs verifies that at no point do two live
// allocations hold the same node ID.
func TestStressNoOverlappingNodeIDs(t *testing.T) {
	e, s := newTestServer(16)
	rng := rand.New(rand.NewSource(42))
	apps := make([]*chaosApp, 3)
	for i := range apps {
		a := &chaosApp{t: t, rng: rand.New(rand.NewSource(int64(900 + i))), e: e}
		a.sess = s.Connect(a)
		apps[i] = a
	}
	for round := 0; round < 300; round++ {
		apps[rng.Intn(len(apps))].act()
		e.Run(e.Now() + rng.Float64()*5)

		seen := map[int]request.ID{}
		for _, sess := range s.sessions {
			for _, r := range sess.app.Requests() {
				if !r.Started() || r.Finished {
					continue
				}
				for _, id := range r.NodeIDs {
					if other, dup := seen[id]; dup {
						t.Fatalf("t=%.1f: node %d held by requests %d and %d",
							e.Now(), id, other, r.ID)
					}
					seen[id] = r.ID
				}
			}
		}
	}
}
