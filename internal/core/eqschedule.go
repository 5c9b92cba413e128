package core

import (
	"slices"
	"sort"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// PreemptPolicy selects how preemptible resources are divided among
// applications.
type PreemptPolicy uint8

const (
	// EquiPartitionFilling is the paper's default policy (§3.2, §A.4.3):
	// resources are divided equally among applications with preemptible
	// requests, but resources an application does not request may be
	// filled by the others.
	EquiPartitionFilling PreemptPolicy = iota
	// StrictEquiPartition is the baseline of §5.4: every application is
	// shown exactly its equi-partition, regardless of whether the other
	// applications use theirs.
	StrictEquiPartition
)

// String returns a human-readable policy name.
func (p PreemptPolicy) String() string {
	if p == StrictEquiPartition {
		return "strict-equi-partition"
	}
	return "equi-partition-filling"
}

// eqSchedule implements Algorithm 3 (§A.4.3): it divides the resources of
// vin among the applications' preemptible requests and returns the
// preemptive view of each application trimmed at t0, keyed by application
// ID. As a side effect the ScheduledAt and NAlloc attributes of the
// preemptible requests are updated. It runs on a throwaway scheduler, so
// nothing is cached across calls (the applications' caches are written but
// never reused with stale inputs — every cache carries its exact input
// identity).
func eqSchedule(apps []*AppState, vin view.View, t0 float64, policy PreemptPolicy) map[int]view.View {
	s := NewScheduler(map[view.ClusterID]int{})
	s.policy = policy
	s.eqScheduleIncremental(apps, false, vin, t0)
	out := make(map[int]view.View, len(apps))
	for _, a := range apps {
		out[a.ID] = a.cache.pOut
	}
	return out
}

// eqScheduleIncremental is Algorithm 3 with per-application and per-cluster
// caching, over apps in this round's order (dynamic: admission-gated). It
// leaves each application's preemptive view in its cache (pOut). Every
// reuse condition is exact, so the result is bit-identical to a full
// recomputation:
//   - a preliminary occupancy view is reused when the application's
//     preemptible set is clean and its availability-dependent allocs
//     re-check unchanged, and a recomputed one equal by value keeps the
//     cached map (so a start that leaves the rectangle where fit put it
//     changes no walk input);
//   - a per-cluster interval walk is reused when every input profile is the
//     identical (immutable) object;
//   - the walk's fragments are handed out cut at t0 and keep their trimmed
//     object until t0 reaches their next breakpoint. The preemptive side
//     reads views only on [t0, ∞) — allocWindow starts at t0 or later, fit
//     places requests at t0 or later — so the cut changes no schedule, and
//     the views arrive trimmed;
//   - a granted view keeps its map when none of its fragments changed;
//   - the rescheduling pass skips a clean, settled application whose
//     fragments at its requests' clusters are the ones it was last
//     rescheduled against.
func (s *Scheduler) eqScheduleIncremental(apps []*AppState, dynamic bool, vin view.View, t0 float64) {
	sc, n := &s.sc, len(apps)
	if n == 0 {
		return
	}

	// Compute preliminary views of occupied resources (lines 1–3).
	sc.vocc = grown(sc.vocc, n)
	vocc := sc.vocc
	for i, a := range apps {
		c := &a.cache
		if a.P.Len() == 0 {
			// No requests: toView and fit would be no-ops on an empty set
			// and the subtraction below a full copy of vin for nothing.
			vocc[i] = nil
			continue
		}
		if dynamic && !a.admitted {
			// Not admitted: pending preemptible requests stay
			// unscheduled; only the started/fixed allocations occupy.
			s.stats.EqOccRecomputed++
			unschedulePending(a.P)
			vocc[i] = toViewScratch(a.P, vin, t0, sc)
			c.eqOK = false
			continue
		}
		if c.eqOK && c.pSettled && allocStable(a.P, vin, t0, c.voccNAlloc) {
			s.stats.EqOccReused++
			vocc[i] = c.vocc
			continue
		}
		s.stats.EqOccRecomputed++
		fixed := toViewScratch(a.P, vin, t0, sc)
		avail := vin.Sub(fixed)
		avail.MutClampMin(0)
		pending := fitScratch(a.P, avail, t0, sc)
		if fixed == nil {
			fixed = pending // may still be nil: app occupies nothing
		} else {
			fixed.MutAdd(pending)
		}
		if fixed != nil {
			// An occupancy whose value held keeps its map, and so its
			// profiles: the walks keyed on them stay valid.
			fixed = kept(c.vocc, fixed)
		}
		vocc[i] = fixed
		c.vocc = fixed
		c.pSettled = allFixed(a.P)
		c.pRects = captureRects(a.P, c.pRects, false)
		if c.pSettled {
			c.voccNAlloc = captureNAllocs(a.P, c.voccNAlloc)
		} else {
			c.voccNAlloc = c.voccNAlloc[:0]
		}
		c.eqOK = true
	}

	// Applications that occupy nothing are interchangeable in the
	// interval walk below: they request 0 nodes at every instant, so they
	// neither join the water-filling nor change `active`, and all of them
	// receive the identical hypothetical-share view (Alg. 3 lines 11–12:
	// avail/(active+1)). Walk only the occupying applications plus — when
	// at least one application is idle — one virtual idle slot, and share
	// that slot's view among every idle application. With federated
	// sessions connected to every shard (internal/federation.Connect) this
	// keeps the walk proportional to the applications that actually hold
	// or request preemptible resources on this shard.
	sc.occ = sc.occ[:0]
	for i := range apps {
		if vocc[i] != nil {
			sc.occ = append(sc.occ, i)
		}
	}
	occ := sc.occ
	nw := len(occ) // walked slots; slot nw is the virtual idle one, if any
	if len(occ) < n {
		nw++
	}

	// Gather every cluster mentioned by vin or any occupancy view.
	if sc.cseen == nil {
		sc.cseen = make(map[view.ClusterID]bool)
	}
	clear(sc.cseen)
	sc.clusters = sc.clusters[:0]
	addCluster := func(cid view.ClusterID) {
		if !sc.cseen[cid] {
			sc.cseen[cid] = true
			sc.clusters = append(sc.clusters, cid)
		}
	}
	for cid := range vin.All() {
		addCluster(cid)
	}
	for _, i := range occ {
		for cid := range vocc[i].All() {
			addCluster(cid)
		}
	}
	clusters := sc.clusters
	slices.Sort(clusters) // cluster IDs are unique

	// For each cluster, walk the piece-wise constant intervals
	// (lines 4–27) — or reuse the cached walk when every input profile is
	// the identical object (profiles are immutable, so identity implies
	// equality; a recomputed occupancy keeps its objects only when its value
	// held), or is one in another slot of an order-free walk.
	sc.profs = grown(sc.profs, nw+1)
	sc.walks = grown(sc.walks, len(clusters))
	var zero view.View
	for ci, cid := range clusters {
		profs := sc.profs[:nw+1]
		profs[0] = vin.Get(cid)
		for j, i := range occ {
			profs[1+j] = vocc[i].Get(cid)
		}
		if nw > len(occ) {
			profs[1+len(occ)] = zero.Get(cid) // virtual idle slot
		}
		if w := s.eqWalks[cid]; w != nil && (slices.Equal(w.key, profs) || w.permute(profs, sc)) {
			s.stats.WalksReused++
			sc.walks[ci] = w
			continue
		}
		s.stats.WalksRecomputed++
		w := newClusterWalk(profs, nw, s.policy, sc)
		s.eqWalks[cid] = w
		sc.walks[ci] = w
	}

	// Assemble each slot's granted view from the per-cluster fragments cut
	// at t0, keeping the application's last view object when nothing
	// changed. Slot nw-1 is the shared idle view.
	sc.slotViews = grown(sc.slotViews, nw)
	for j := 0; j < nw; j++ {
		var cached view.View
		if j < len(occ) {
			cached = apps[occ[j]].cache.pOut
		} else {
			cached = s.eqIdle
		}
		nonzero := 0
		match := cached != nil
		for ci := range clusters {
			f := sc.walks[ci].cut(j, t0)
			if f.IsZero() {
				continue
			}
			nonzero++
			if match && cached.Get(clusters[ci]) != f {
				match = false
			}
		}
		if match && cached.Len() == nonzero {
			sc.slotViews[j] = cached
			continue
		}
		v := view.NewSized(nonzero)
		for ci := range clusters {
			if f := sc.walks[ci].cut(j, t0); !f.IsZero() {
				v.Put(clusters[ci], f)
			}
		}
		sc.slotViews[j] = v
		if j >= len(occ) {
			s.eqIdle = v
		}
	}
	var idle view.View // shared by every idle application
	if nw > len(occ) {
		idle = sc.slotViews[nw-1]
	}

	// Reschedule all requests according to the computed views, so that
	// ScheduledAt and NAlloc are set correctly (lines 28–30). Idle
	// applications with no preemptible requests at all have nothing to
	// reschedule and share the idle view's map (consumers treat pushed
	// views as immutable). A clean, settled application whose fragments at
	// its requests' clusters are the objects it was last rescheduled
	// against, and whose alloc() values re-check identical against them, has
	// nothing to update either: a change on another cluster does not touch
	// it.
	if sc.grantP == nil {
		sc.grantP = view.New() // never nil: toView reads a nil view as unlimited
	}
	j := 0
	for i, a := range apps {
		v, c := idle, &a.cache
		if j < len(occ) && occ[j] == i {
			v = sc.slotViews[j]
			j++
		}
		c.pOut = v
		if a.P.Len() == 0 {
			continue
		}
		if dynamic && !a.admitted {
			// Not admitted: refresh the started allocations against the
			// granted view but leave pending requests unscheduled.
			s.stats.EqAppRecomputed++
			toViewScratch(a.P, v, t0, sc)
			unschedulePending(a.P)
			c.eqOK = false
			continue
		}
		if c.eqOK && c.pSettled && sameGrantFrags(a.P, v, c.grantFrags) && grantAllocStable(a.P, v, t0) {
			s.stats.EqAppReused++
			continue
		}
		s.stats.EqAppRecomputed++
		// toView and fit read a view only at their requests' clusters, so
		// they run on the granted view restricted to those, in a reused map.
		avail := sc.grantP
		avail.Clear()
		c.grantFrags = c.grantFrags[:0]
		for _, r := range a.P.All() {
			f, ok := v.Lookup(r.Cluster)
			if ok {
				avail.Put(r.Cluster, f)
			}
			c.grantFrags = append(c.grantFrags, f)
		}
		fixed := toViewScratch(a.P, avail, t0, sc)
		avail.MutSub(fixed)
		avail.MutClampMin(0)
		fitScratch(a.P, avail, t0, sc)
	}
}

// captureNAllocs records every request's NAlloc in set order.
func captureNAllocs(rs *request.Set, dst []int) []int {
	dst = dst[:0]
	for _, r := range rs.All() {
		dst = append(dst, r.NAlloc)
	}
	return dst
}

// walkCluster runs one cluster's piece-wise constant interval walk
// (Alg. 3 lines 4–27): profs[0] is the vin fragment, profs[1+j] walked
// slot j's occupancy fragment. It returns the per-slot result fragments and
// whether any interval's division depended on the slots' order.
func walkCluster(profs []*stepfunc.StepFunc, nw int, policy PreemptPolicy, sc *scratch) (frags []*stepfunc.StepFunc, ordered bool) {
	// Merge the breakpoints of all profiles into one sorted, deduplicated
	// slice (no per-cluster set allocation).
	bps := append(sc.bps[:0], 0)
	for _, f := range profs {
		bps = f.AppendBreakpoints(bps)
	}
	sort.Float64s(bps)
	dedup := bps[:1]
	for _, t := range bps[1:] {
		if t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	sc.bps = bps
	bps = dedup

	sc.cursor = grown(sc.cursor, nw+1)
	sc.val = grown(sc.val, nw+1)
	sc.req = grown(sc.req, nw)
	sc.share = grown(sc.share, nw)
	sc.need = grown(sc.need, nw)
	sc.grant = grown(sc.grant, nw)
	sc.builders = grown(sc.builders, nw)
	for i := range sc.cursor {
		sc.cursor[i] = 0
		sc.val[i] = 0
	}
	for i := 0; i < nw; i++ {
		sc.builders[i].Reset()
	}

	for _, t := range bps {
		// Advance every profile cursor to its segment covering t. The
		// breakpoint list is the union of all profiles' breakpoints, so
		// this walk visits each profile point exactly once per cluster.
		for s, f := range profs {
			for sc.cursor[s] < f.Len() {
				pt, pn := f.At(sc.cursor[s])
				if pt > t {
					break
				}
				sc.val[s] = pn
				sc.cursor[s]++
			}
		}
		vinVal := sc.val[0]
		if vinVal < 0 {
			vinVal = 0
		}
		sum := 0
		active := 0
		for i := 0; i < nw; i++ {
			r := sc.val[1+i]
			if r < 0 {
				r = 0
			}
			sc.req[i] = r
			sum += r
			if r > 0 {
				active++
			}
		}
		if divideInterval(vinVal, sc.req, sum, active, policy, sc.share, sc.need, sc.grant) {
			ordered = true
		}
		for i := 0; i < nw; i++ {
			sc.builders[i].Append(t, sc.share[i])
		}
	}
	frags = make([]*stepfunc.StepFunc, nw)
	for i := 0; i < nw; i++ {
		frags[i] = sc.builders[i].Fn()
	}
	return frags, ordered
}

// divideInterval computes the per-application view values for one
// piece-wise constant interval: avail nodes available, req[i] nodes
// requested by application i (sum, active precomputed). The result is
// written into out; need and grant are caller-provided scratch of the same
// length. It reports whether the division depended on the applications'
// order, which happens only when a water-filling pass has fewer nodes left
// than unsatisfied applications and hands them out one each in order; any
// other value is a function of the application's own request and the
// totals.
func divideInterval(avail int, req []int, sum, active int, policy PreemptPolicy, out, need, grant []int) (ordered bool) {
	n := len(req)

	// Fair-share size for an application: its equi-partition. An inactive
	// application's hypothetical share uses active+1 partitions (Alg. 3
	// lines 11–12 and 22–23: "the number of partitions if this application
	// were to become active").
	share := func(i int) int {
		parts := active
		if req[i] == 0 {
			parts = active + 1
		}
		if parts == 0 {
			parts = 1
		}
		return avail / parts
	}

	if policy == StrictEquiPartition {
		for i := 0; i < n; i++ {
			out[i] = share(i)
		}
		return false
	}

	if sum > avail {
		// Congested: distribute resources equally until none are left free
		// (lines 8–18), using iterative water-filling.
		copy(need, req)
		for i := 0; i < n; i++ {
			grant[i] = 0
		}
		left := avail
		for left > 0 {
			unsat := 0
			for i := 0; i < n; i++ {
				if need[i] > 0 {
					unsat++
				}
			}
			if unsat == 0 {
				break
			}
			veq := left / unsat
			if veq < 1 {
				veq = 1
				ordered = true
			}
			progressed := false
			for i := 0; i < n; i++ {
				if need[i] == 0 || left == 0 {
					continue
				}
				take := need[i]
				if veq < take {
					take = veq
				}
				if left < take {
					take = left
				}
				grant[i] += take
				need[i] -= take
				left -= take
				if take > 0 {
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		for i := 0; i < n; i++ {
			if req[i] > 0 {
				out[i] = grant[i]
			} else {
				// Inactive applications still see their hypothetical share
				// so they can decide to become active.
				out[i] = share(i)
			}
		}
		return ordered
	}

	// Uncongested: give each application the resources left free by the
	// others, but not less than its equi-partition (lines 19–25).
	for i := 0; i < n; i++ {
		leftover := avail - (sum - req[i])
		if s := share(i); leftover < s {
			leftover = s
		}
		if leftover < 0 {
			leftover = 0
		}
		out[i] = leftover
	}
	return false
}
