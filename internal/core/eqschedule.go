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
// preemptible requests are updated. It runs on a throwaway scheduler over
// vin's clusters, so nothing is cached across calls (the applications'
// caches are written but never reused with stale inputs — every cache
// carries its exact input identity).
func eqSchedule(apps []*AppState, vin view.View, t0 float64, policy PreemptPolicy) map[int]view.View {
	clusters := make(map[view.ClusterID]int, vin.Len())
	for cid := range vin.All() {
		clusters[cid] = 0 // capacities are not read: vin is the input
	}
	s := NewScheduler(clusters)
	s.policy = policy
	s.eqScheduleIncremental(apps, false, vin, t0)
	out := make(map[int]view.View, len(apps))
	for _, a := range apps {
		_, out[a.ID] = a.Views()
	}
	return out
}

// eqScheduleIncremental is Algorithm 3 with per-application and per-cluster
// caching, over apps in this round's order (dynamic: admission-gated). It
// leaves each application's preemptive fragments in the scheduler's pIndex,
// at the row its cache names (pRow). Every reuse condition is exact, so the
// result is bit-identical to a full recomputation:
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
//     the fragments arrive trimmed;
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
	// held), or is one in another slot of an order-free walk. A recomputed
	// walk takes over the arrays of the one it replaces.
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
		old := s.eqWalks[cid]
		if old != nil && (slices.Equal(old.key, profs) || old.permute(profs, sc)) {
			s.stats.WalksReused++
			sc.walks[ci] = old
			continue
		}
		s.stats.WalksRecomputed++
		w := newClusterWalk(old, profs, nw, s.policy, sc)
		s.eqWalks[cid] = w
		sc.walks[ci] = w
	}

	// Cut each slot's fragments at t0, one row of pIndex's clusters per slot
	// (row nw-1 is the shared idle slot's); nil stands for zero, and so
	// does a cluster no walk covered. A walked cluster the scheduler does
	// not manage has no capacity, so vin and every fragment are zero there.
	// An entry is written only when its fragment changed: most hold from
	// round to round, and every pointer write costs a barrier while the
	// collector marks. Entries past the rows in use stay nil, so no
	// fragment of an earlier round is pinned.
	s.syncFragIndex()
	x := s.pIndex
	cids := x.cids
	k := len(cids)
	if len(x.rows) > nw*k {
		clear(x.rows[nw*k:])
	}
	x.rows = grown(x.rows, nw*k)
	rows := x.rows
	ci := 0
	for pi, cid := range cids {
		for ci < len(clusters) && clusters[ci] < cid {
			ci++
		}
		var w *clusterWalk
		if ci < len(clusters) && clusters[ci] == cid {
			w = sc.walks[ci]
		}
		for j := 0; j < nw; j++ {
			var f *stepfunc.StepFunc
			if w != nil {
				if f = w.cut(j, t0); f.IsZero() {
					f = nil
				}
			}
			if rows[j*k+pi] != f {
				rows[j*k+pi] = f
			}
		}
	}

	// Point each application at its slot's row, and reschedule all requests
	// according to it, so that ScheduledAt and NAlloc are set correctly
	// (lines 28–30). Idle applications all take the idle row. A clean,
	// settled application whose fragments at its requests' clusters are the
	// objects it was last rescheduled against, and whose alloc() values
	// re-check identical against them, has nothing to update: a change on
	// another cluster does not touch it.
	if sc.grantP == nil {
		sc.grantP = view.New() // never nil: toView reads a nil view as unlimited
		sc.fixedP = view.New()
	}
	j := 0
	for i, a := range apps {
		row, c := nw-1, &a.cache
		if j < len(occ) && occ[j] == i {
			row = j
			j++
		}
		if c.pIndex != x {
			c.pIndex, c.pSeen = x, make([]*stepfunc.StepFunc, k)
		}
		c.pRow = row
		if a.P.Len() == 0 {
			continue
		}
		// toView and fit read a view only at their requests' clusters, so
		// they run on the granted fragments there, in a reused map.
		avail, frags := sc.grantP, sc.grantNow[:0]
		avail.Clear()
		for _, r := range a.P.All() {
			f := c.pFrag(r.Cluster)
			if f != nil {
				avail.Put(r.Cluster, f)
			}
			frags = append(frags, f)
		}
		sc.grantNow = frags
		if dynamic && !a.admitted {
			// Not admitted: refresh the started allocations against the
			// granted view but leave pending requests unscheduled.
			s.stats.EqAppRecomputed++
			sc.fixedP.Clear()
			toViewInto(sc.fixedP, a.P, avail, t0, sc)
			unschedulePending(a.P)
			c.eqOK = false
			continue
		}
		if c.eqOK && c.pSettled && slices.Equal(c.grantFrags, frags) && grantAllocStable(a.P, avail, t0) {
			s.stats.EqAppReused++
			continue
		}
		s.stats.EqAppRecomputed++
		c.grantFrags = append(c.grantFrags[:0], frags...)
		sc.fixedP.Clear()
		fixed := toViewInto(sc.fixedP, a.P, avail, t0, sc)
		if allFixed(a.P) {
			continue // fit schedules only requests that are not fixed
		}
		avail.MutSub(fixed)
		avail.MutClampMin(0)
		fitScratch(a.P, avail, t0, sc)
	}
}

// syncFragIndex replaces pIndex when the scheduler's clusters are not its
// clusters any more, after a structural change. Every application's
// reported fragments move to their cluster's new position; a non-zero one
// at a cluster that left goes to the new index's gone list. The round that
// calls it fills the new index's rows.
func (s *Scheduler) syncFragIndex() {
	if s.pIndex != nil && s.pGen == s.structGen {
		return
	}
	s.pGen = s.structGen
	if old := s.pIndex; old != nil && len(old.cids) == len(s.clusters) {
		same := true
		for _, cid := range old.cids {
			if _, ok := s.clusters[cid]; !ok {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	x := &fragIndex{cids: make([]view.ClusterID, 0, len(s.clusters))}
	for cid := range s.clusters {
		x.cids = append(x.cids, cid)
	}
	slices.Sort(x.cids)
	k := len(x.cids)
	for _, a := range s.apps {
		c := &a.cache
		if c.pIndex == nil || c.pIndex != s.pIndex {
			continue // never handed fragments by this scheduler
		}
		old := c.pIndex
		seen := make([]*stepfunc.StepFunc, k)
		gone := old.gone[c]
		for i, cid := range old.cids {
			if j, ok := slices.BinarySearch(x.cids, cid); ok {
				seen[j] = c.pSeen[i]
			} else if f := c.pSeen[i]; f != nil {
				gone = append(gone, goneFrag{cid, f})
			}
		}
		if len(gone) > 0 {
			if x.gone == nil {
				x.gone = make(map[*appCache][]goneFrag)
			}
			x.gone[c] = gone
		}
		c.pIndex, c.pSeen = x, seen
	}
	s.pIndex = x
}

// pFrags returns the application's fragments, one per cluster of its index.
func (c *appCache) pFrags() []*stepfunc.StepFunc {
	k := len(c.pIndex.cids)
	return c.pIndex.rows[c.pRow*k : (c.pRow+1)*k]
}

// pFrag returns the application's fragment at cid, nil when zero.
func (c *appCache) pFrag(cid view.ClusterID) *stepfunc.StepFunc {
	if i, ok := slices.BinarySearch(c.pIndex.cids, cid); ok {
		return c.pFrags()[i]
	}
	return nil
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
// slot j's occupancy fragment. It returns the per-slot result fragments, in
// sc's buffer until the next walk, and whether any interval's division
// depended on the slots' order.
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
	frags = grown(sc.walkOut, nw)
	for i := 0; i < nw; i++ {
		frags[i] = sc.builders[i].Fn()
	}
	sc.walkOut = frags
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
