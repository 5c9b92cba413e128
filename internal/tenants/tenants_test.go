package tenants

import (
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/core"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

const cA, cB = view.ClusterID("ca"), view.ClusterID("cb")

func TestTreeStructure(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("org/team/q1", Resources{cA: 4}, Resources{cA: 8})
	tr.MustAdd("org/team/q2", nil, nil)
	tr.MustAdd("org/ops", Resources{cA: 2}, nil)

	if q := tr.Queue("org/team/q1"); q == nil || q.Name() != "q1" || q.parent.path != "org/team" {
		t.Fatalf("bad queue: %+v", tr.Queue("org/team/q1"))
	}
	org := tr.Queue("org")
	if org == nil || org.parent != tr.root {
		t.Fatal("intermediate queue not created under root")
	}
	if got := len(org.children); got != 2 {
		t.Fatalf("org has %d children, want 2", got)
	}
	if org.children[0].Name() != "ops" {
		t.Fatal("children not sorted by name")
	}
	if _, err := tr.Add("org/team/q1", nil, nil); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if q := tr.Resolve("nope"); q.path != DefaultQueue {
		t.Fatalf("unknown tenant resolves to %q, want default", q.path)
	}
	if q := tr.Resolve(""); q.path != DefaultQueue {
		t.Fatalf("empty tenant resolves to %q, want default", q.path)
	}
	NewDRF(tr) // seals
	if _, err := tr.Add("late", nil, nil); err == nil {
		t.Fatal("Add after seal must fail")
	}
}

// mkApp builds an AppState with a tenant label and one started
// preemptible allocation of n nodes on cid.
func mkApp(id int, tenant string, connectedAt float64) *core.AppState {
	a := core.NewAppState(id, connectedAt)
	a.Tenant = tenant
	return a
}

func addStartedP(a *core.AppState, rid request.ID, cid view.ClusterID, n int) *request.Request {
	r := request.New(rid, a.ID, cid, n, math.Inf(1), request.Preempt, request.Free, nil)
	r.NAlloc = n
	r.StartedAt = 0
	a.P.Add(r)
	return r
}

func addPendingNP(a *core.AppState, rid request.ID, cid view.ClusterID, n int) *request.Request {
	r := request.New(rid, a.ID, cid, n, 100, request.NonPreempt, request.Free, nil)
	a.NP.Add(r)
	return r
}

func info() core.RoundInfo {
	return core.RoundInfo{Now: 0, Clusters: map[view.ClusterID]int{cA: 16, cB: 8}}
}

// infoCaps is info with explicit capacities — the victim tests pin them
// tight so no free headroom absorbs the shortage.
func infoCaps(caps map[view.ClusterID]int) core.RoundInfo {
	return core.RoundInfo{Now: 0, Clusters: caps}
}

// TestDRFOrder: the queue with the smaller dominant share is offered
// resources first; within a queue, connection order is kept.
func TestDRFOrder(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("hog", Resources{cA: 4}, nil)
	tr.MustAdd("meek", Resources{cA: 4}, nil)
	p := NewDRF(tr)

	h1 := mkApp(1, "hog", 0)
	addStartedP(h1, 1, cA, 8) // share 8/4 = 2.0
	m1 := mkApp(2, "meek", 1)
	addStartedP(m1, 2, cA, 2) // share 2/4 = 0.5
	m2 := mkApp(3, "meek", 2)

	apps := []*core.AppState{h1, m1, m2}
	got := p.Order(info(), apps, nil)
	want := []int{2, 3, 1} // meek first (ascending share), connection order within
	for i, a := range got {
		if a.ID != want[i] {
			t.Fatalf("order[%d] = app %d, want %d (full: %v)", i, a.ID, want[i], ids(got))
		}
	}
	if s := p.share[tr.Queue("hog").id]; s != 2.0 {
		t.Fatalf("hog share = %v, want 2.0", s)
	}
}

// TestDRFOrderIsPermutation: whatever tenant labels the applications carry
// — a wire connect sets them — Order returns every application exactly once.
// core.Scheduler.Schedule panics on a policy that does not; DRF is the only
// one in the tree.
func TestDRFOrderIsPermutation(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("org/team/q1", Resources{cA: 4}, Resources{cA: 8})
	tr.MustAdd("org/ops", nil, nil)
	p := NewDRF(tr)
	labels := []string{"", "org", "org/team", "org/team/q1", "org/ops", DefaultQueue,
		"nope", "org/team/q1/", "/", "org//ops", "\x00"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		apps := make([]*core.AppState, rng.Intn(12))
		for i := range apps {
			apps[i] = mkApp(i+1, labels[rng.Intn(len(labels))], float64(i))
			if rng.Intn(2) == 0 {
				addStartedP(apps[i], request.ID(i+1), []view.ClusterID{cA, cB}[rng.Intn(2)], 1+rng.Intn(6))
			}
		}
		got := p.Order(info(), apps, nil)
		seen := make(map[int]bool, len(got))
		for _, a := range got {
			seen[a.ID] = true
		}
		if len(got) != len(apps) || len(seen) != len(apps) {
			t.Fatalf("round %d: Order returned %v for applications %v", round, ids(got), ids(apps))
		}
	}
}

func ids(apps []*core.AppState) []int {
	out := make([]int, len(apps))
	for i, a := range apps {
		out[i] = a.ID
	}
	return out
}

// TestDRFAdmit: a queue at its max quota admits no new work on that
// cluster, but apps demanding elsewhere pass.
func TestDRFAdmit(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("capped", nil, Resources{cA: 4})
	p := NewDRF(tr)

	a1 := mkApp(1, "capped", 0)
	addStartedP(a1, 1, cA, 4) // at the cap
	a2 := mkApp(2, "capped", 1)
	addPendingNP(a2, 2, cA, 2) // wants more of cA
	a3 := mkApp(3, "capped", 2)
	addPendingNP(a3, 3, cB, 2) // wants cB: not capped there

	apps := []*core.AppState{a1, a2, a3}
	p.Order(info(), apps, nil)
	if !p.Admit(info(), a1) {
		t.Fatal("app with no pending demand must stay admitted")
	}
	if p.Admit(info(), a2) {
		t.Fatal("app demanding a capped cluster must be rejected")
	}
	if !p.Admit(info(), a3) {
		t.Fatal("app demanding an uncapped cluster must be admitted")
	}
	if p.lastRejected != 1 {
		t.Fatalf("lastRejected = %d, want 1", p.lastRejected)
	}
}

// TestVictimsRelieveShortage: a starved guaranteed queue gets victims
// nominated from over-guarantee queues on the shortage cluster, never
// more than the shortage needs, donors kept at or above their guarantee.
func TestVictimsRelieveShortage(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("prod", Resources{cA: 8}, nil)
	tr.MustAdd("batch", Resources{cA: 2}, nil)
	p := NewDRF(tr)

	b := mkApp(1, "batch", 0)
	r1 := addStartedP(b, 1, cA, 3)
	r2 := addStartedP(b, 2, cA, 3) // batch usage 6, guarantee 2 → surplus 4
	pr := mkApp(2, "prod", 1)
	addPendingNP(pr, 3, cA, 4) // prod: usage 0 < 8 guaranteed, wants 4

	// Capacity 6 = batch's usage: zero headroom, preemption must cover
	// the full 4-node shortage.
	victims := p.Victims(infoCaps(map[view.ClusterID]int{cA: 6}), []*core.AppState{b, pr}, nil)
	if len(victims) != 2 {
		t.Fatalf("got %d victims, want 2 (shortage 4 needs both 3-node allocations)", len(victims))
	}
	// Newest allocation revoked first within the donor queue.
	if victims[0] != r2 || victims[1] != r1 {
		t.Fatalf("victim order: got %v,%v want r2,r1", victims[0].ID, victims[1].ID)
	}
}

// TestVictimsRespectDonorGuarantee: revocation stops once the donor
// would drop below its own guarantee.
func TestVictimsRespectDonorGuarantee(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("prod", Resources{cA: 10}, nil)
	tr.MustAdd("batch", Resources{cA: 4}, nil)
	p := NewDRF(tr)

	b := mkApp(1, "batch", 0)
	addStartedP(b, 1, cA, 3)
	addStartedP(b, 2, cA, 3) // usage 6, guarantee 4 → only one 3-node revocation allowed
	pr := mkApp(2, "prod", 1)
	addPendingNP(pr, 3, cA, 10)

	victims := p.Victims(infoCaps(map[view.ClusterID]int{cA: 6}), []*core.AppState{b, pr}, nil)
	if len(victims) != 1 {
		t.Fatalf("got %d victims, want 1 (second revocation would underrun the donor's guarantee)", len(victims))
	}
}

// TestVictimsNeverFireWithoutRelief is the acceptance property: no
// nomination when revoking cannot relieve the shortage — free headroom
// covers the demand, preemptible work is on the wrong cluster, there is
// no preemptible usage at all, or the demand sits inside the same
// subtree.
func TestVictimsNeverFireWithoutRelief(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("prod", Resources{cA: 8}, nil)
	tr.MustAdd("batch", nil, nil)
	p := NewDRF(tr)
	tight := map[view.ClusterID]int{cA: 4, cB: 8} // tiny cA: headroom 0 below

	// Free headroom absorbs the shortage: a donor exists (batch holds 6
	// preemptible nodes over its zero guarantee) but 10 of cA's 16 nodes
	// are free, so prod's 4-node demand starts on its own — no victims.
	hb := mkApp(7, "batch", 0)
	addStartedP(hb, 20, cA, 6)
	pr := mkApp(2, "prod", 1)
	addPendingNP(pr, 2, cA, 4)
	if v := p.Victims(info(), []*core.AppState{hb, pr}, nil); len(v) != 0 {
		t.Fatalf("victims despite free headroom: %d nominations", len(v))
	}

	// Donor holds preemptible work on cB only; cA (capacity 4) is filled
	// by prod's own non-preemptible work, so the shortage is real but no
	// revocation on cB can relieve it.
	b := mkApp(1, "batch", 0)
	addStartedP(b, 1, cB, 4)
	fill := mkApp(8, "prod", 0)
	nfill := request.New(21, 8, cA, 4, 100, request.NonPreempt, request.Free, nil)
	nfill.NAlloc = 4
	nfill.StartedAt = 0
	fill.NP.Add(nfill)
	if v := p.Victims(infoCaps(tight), []*core.AppState{b, fill, pr}, nil); len(v) != 0 {
		t.Fatalf("victims on the wrong cluster: %d nominations", len(v))
	}

	// No pending demand → no shortage → nothing fires even though prod
	// is far below its guarantee.
	pr2 := mkApp(3, "prod", 2)
	if v := p.Victims(infoCaps(tight), []*core.AppState{b, pr2}, nil); len(v) != 0 {
		t.Fatalf("victims without demand: %d nominations", len(v))
	}

	// Starved queue's own preemptible work is never its victim.
	pr3 := mkApp(4, "prod", 3)
	addStartedP(pr3, 3, cA, 2)
	addPendingNP(pr3, 4, cA, 10)
	if v := p.Victims(infoCaps(tight), []*core.AppState{pr3}, nil); len(v) != 0 {
		t.Fatalf("queue preempted itself: %d nominations", len(v))
	}

	// Non-preemptible usage of another queue is untouchable.
	np := mkApp(5, "batch", 4)
	r := request.New(9, 5, cA, 6, 100, request.NonPreempt, request.Free, nil)
	r.NAlloc = 6
	r.StartedAt = 0
	np.NP.Add(r)
	if v := p.Victims(infoCaps(tight), []*core.AppState{np, pr}, nil); len(v) != 0 {
		t.Fatalf("non-preemptible work nominated: %d nominations", len(v))
	}
}

// TestDRFEndToEnd runs the policy inside a real scheduler, in the regime
// where victim nomination is genuinely load-bearing. The core already
// max-min-shares preemptible capacity — but per APPLICATION and
// tenant-blind (Alg. 3), so a tenant running two apps out-shares a
// guaranteed tenant running one: on a 12-node cluster each of the three
// apps is granted 4, leaving the guaranteed queue (floor 8) starved at 4
// with 4 nodes pending. No ordering fixes that; only Victims can revoke
// batch's granted capacity to enforce the floor.
func TestDRFEndToEnd(t *testing.T) {
	tr := NewTree()
	tr.MustAdd("prod", Resources{cA: 8}, nil)
	tr.MustAdd("batch", nil, nil)
	p := NewDRF(tr)

	s := core.NewScheduler(map[view.ClusterID]int{cA: 12})
	s.SetSchedulingPolicy(p)

	var batchReqs []*request.Request
	for i := 1; i <= 2; i++ {
		a := s.AddApp(i, float64(i-1))
		a.Tenant = "batch"
		r := request.New(request.ID(i), i, cA, 6, math.Inf(1), request.Preempt, request.Free, nil)
		a.P.Add(r)
		batchReqs = append(batchReqs, r)
	}
	prod := s.AddApp(3, 2)
	prod.Tenant = "prod"
	p0 := request.New(3, 3, cA, 8, math.Inf(1), request.Preempt, request.Free, nil)
	prod.P.Add(p0)

	for _, r := range s.Schedule(0) {
		r.StartedAt = 0
		s.MarkAppDirty(r.AppID)
	}
	s.Schedule(1)
	if p0.NAlloc >= 8 {
		t.Fatalf("prod granted %d ≥ its guarantee — scenario must starve it", p0.NAlloc)
	}

	vn, ok := s.SchedulingPolicy().(core.VictimNominator)
	if !ok {
		t.Fatal("DRF must be a VictimNominator")
	}
	victims := vn.Victims(core.RoundInfo{Now: 1, Clusters: map[view.ClusterID]int{cA: 12}}, s.Apps(), nil)
	if len(victims) == 0 {
		t.Fatal("no victims nominated for a starved guaranteed queue on a full cluster")
	}
	freed := 0
	for _, v := range victims {
		if v != batchReqs[0] && v != batchReqs[1] {
			t.Fatalf("victim %v is not batch's work", v.ID)
		}
		freed += v.NAlloc
	}
	shortage := 8 - p0.NAlloc
	if freed < shortage || freed-victims[len(victims)-1].NAlloc >= shortage {
		t.Fatalf("freed %d for shortage %d: must relieve it with no gratuitous extra victim", freed, shortage)
	}
	// Newest allocation first within the donor queue.
	if victims[0] != batchReqs[1] {
		t.Fatalf("victims[0] = request %v, want batch's newest (2)", victims[0].ID)
	}
}

// TestSteadyDRFRoundAllocs pins the allocation budget of a steady round
// under DRF: with the standing fleet unchanged the policy gives the same
// answer every round, core keeps every cache, and what a round allocates
// is a constant that does not grow with the number of applications: core's
// none (TestSteadyRoundAllocs) plus the 2 of the policy's one
// sort.SliceStable over the root's children.
func TestSteadyDRFRoundAllocs(t *testing.T) {
	for _, n := range []int{48, 192} {
		tr := NewTree()
		tr.MustAdd("t0", Resources{cA: 32 * n}, nil)
		tr.MustAdd("t1", nil, nil)
		tr.MustAdd("t2", nil, nil)
		s := core.NewScheduler(map[view.ClusterID]int{cA: 64 * n})
		s.SetSchedulingPolicy(NewDRF(tr))
		for i := 0; i < n; i++ {
			a := s.AddApp(i+1, float64(i))
			a.Tenant = []string{"t0", "t1", "t2"}[i%3]
			pa := request.New(request.ID(3*i+1), a.ID, cA, 16, 1e6, request.PreAlloc, request.Free, nil)
			pa.StartedAt = 0
			a.PA.Add(pa)
			np := request.New(request.ID(3*i+2), a.ID, cA, 8, 1e5, request.NonPreempt, request.Coalloc, pa)
			np.StartedAt = 0
			a.NP.Add(np)
			addStartedP(a, request.ID(3*i+3), cA, 4)
		}
		now := 0.0
		round := func() {
			if toStart := s.Schedule(now); len(toStart) != 0 {
				t.Fatalf("a steady round starts %d requests", len(toStart))
			}
			now++
		}
		round() // warm the caches
		if got := testing.AllocsPerRun(100, round); got > 2 {
			t.Fatalf("steady DRF round over %d applications allocates %.1f times, want ≤ 2", n, got)
		}
		for _, a := range s.Apps() {
			if _, p := a.Views(); p == nil {
				t.Fatalf("%d applications: application %d lost its preemptive view", n, a.ID)
			}
		}
		if st := s.Stats(); st.FullRounds != 1 || st.CBFReused == 0 {
			t.Fatalf("%d applications: %d full rounds, %d CBF steps reused, want 1 and > 0", n, st.FullRounds, st.CBFReused)
		}
	}
}
