package core

import (
	"math"
	"slices"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// This file implements incremental recomputation for Schedule: per-cluster
// dirty tracking over the base availability folds, per-application caching
// of round artifacts (started-allocation views, CBF outputs, eqSchedule
// occupancies and granted views), and per-cluster caching of the eqSchedule
// interval walk. A cached artifact is reused only when its exact inputs are
// provably unchanged — set contents, fixed-request rectangles, profile
// object identity (profiles are immutable), and re-checked alloc() values
// for the time-dependent windows — so outputs stay bit-identical to a full
// recomputation (pinned by TestIncrementalMatchesFullRecompute and the
// federation differential tests).
//
// Contract: the scheduler cannot see request-state mutations performed by
// its caller (the RMS mutates request sets and attributes directly), so any
// such mutation must be reported with MarkAppDirty before the next Schedule
// call. Structural mutations through the Scheduler's own API (AddCluster,
// SetCapacity, RemoveCluster, SetClip, SetPolicy, SetSchedulingPolicy)
// invalidate every cache themselves. Membership is not structural: AddApp
// adds an application that subtracts and occupies nothing, and RemoveApp
// marks the clusters of its started allocations dirty and drops the keys
// that hold its views (see RemoveApp). A dynamic SchedulingPolicy
// invalidates nothing: the CBF chain is keyed on the views its pass
// subtracted, in order, and an interval walk whose division did not depend
// on its slots' order follows a reordering of them (clusterWalk.permute).
// SetIncremental(false) restores unconditional full recomputation.

// SchedStats counts cache behaviour across Schedule rounds. All counters
// are cumulative; Reused+Recomputed pairs sum to the work the corresponding
// full recomputation would have performed.
type SchedStats struct {
	// Rounds counts Schedule calls; FullRounds counts the subset that ran
	// with every cache invalidated: a structural change (a cluster, its
	// capacity, the clip or a policy) or incremental off. Applications
	// connecting and leaving are not structural.
	Rounds     int64
	FullRounds int64
	// Artifacts: per-app started-allocation views (toView folds).
	ArtifactsReused     int64
	ArtifactsRecomputed int64
	// FoldClustersRecomputed counts per-cluster base-availability rebuilds.
	FoldClustersRecomputed int64
	// CBF: per-app steps of the non-preemptive Conservative Back-Filling pass.
	CBFReused     int64
	CBFRecomputed int64
	// EqOcc: per-app preliminary occupancy views of eqSchedule (Alg. 3 lines 1-3).
	EqOccReused     int64
	EqOccRecomputed int64
	// Walks: per-cluster interval walks of eqSchedule (Alg. 3 lines 4-27).
	WalksReused     int64
	WalksRecomputed int64
	// EqApp: per-app rescheduling against the granted view (Alg. 3 lines 28-30).
	EqAppReused     int64
	EqAppRecomputed int64
}

// Map flattens the counters into the key/value shape an obs registry
// counter source expects. Key names are stable: they appear in
// /debug/obs snapshots and experiment reports.
func (s SchedStats) Map() map[string]int64 {
	return map[string]int64{
		"rounds":                   s.Rounds,
		"full_rounds":              s.FullRounds,
		"artifacts_reused":         s.ArtifactsReused,
		"artifacts_recomputed":     s.ArtifactsRecomputed,
		"fold_clusters_recomputed": s.FoldClustersRecomputed,
		"cbf_reused":               s.CBFReused,
		"cbf_recomputed":           s.CBFRecomputed,
		"eqocc_reused":             s.EqOccReused,
		"eqocc_recomputed":         s.EqOccRecomputed,
		"walks_reused":             s.WalksReused,
		"walks_recomputed":         s.WalksRecomputed,
		"eqapp_reused":             s.EqAppReused,
		"eqapp_recomputed":         s.EqAppRecomputed,
	}
}

// rectA is the canonical record of one fixed request's allocation, captured
// from the request attributes right after they were (re)computed. Two equal
// rectA sequences generate byte-identical occupancy views (StepFuncs are
// stored in canonical normalized form, and node counts are integers, so
// rectangle accumulation is exactly order-independent). startedAt records
// the *input* start instant (-Inf while unstarted) alongside the derived
// t0: a start performed by the RMS leaves ScheduledAt stale until the next
// toView, and the comparison must see the mutation through the stale value.
type rectA struct {
	cid       view.ClusterID
	t0, dur   float64
	startedAt float64
	n         int
	wrapped   bool
}

// appCache holds one application's cached round artifacts. It lives on the
// AppState so it is dropped with the application.
type appCache struct {
	// valid marks the request-state artifacts below as current; it is
	// cleared by MarkAppDirty and restored by refreshAppLocked.
	valid bool

	// Artifacts derived from the PA/NP request sets (time-independent:
	// toView with a nil availability view never reads the clock).
	paRects   []rectA // fixed PA rects, set order
	npRects   []rectA // fixed ¬P rects (wrapped flag carried), set order
	paSettled bool    // every PA request is Fixed: fit is a no-op
	npSettled bool    // every ¬P request is Fixed

	// CBF outputs, reusable while the running availability prefix is
	// byte-identical to the round they were computed in (chain reuse) and
	// the clock is in [cbfFrom, cbfUntil] (see cbfStep). cbfAt counts the
	// views the last round subtracted from the running availability before
	// this application's step. The three subtracted views are the last
	// step's, kept also when the step is not reusable.
	cbfOK             bool
	cbfAt             int
	cbfFrom, cbfUntil float64
	cbfOut            view.View // the application's non-preemptive view (Views)
	cbfPA             view.View // newly scheduled pre-allocations subtracted from vNP
	cbfExcess         view.View // wrapped excess subtracted from vNP
	cbfNP             view.View // scheduled ¬P occupancy subtracted from basePv

	// eqSchedule caches.
	eqOK       bool
	pRects     []rectA // fixed P rects (NAlloc excluded: re-checked per round)
	pSettled   bool    // every P request is Fixed: no time-dependent fit
	vocc       view.View
	voccNAlloc []int // phase-A NAlloc per P request, set order
	// grantFrags holds, per P request in set order, the granted fragment at
	// its cluster that the application was last rescheduled against.
	grantFrags []*stepfunc.StepFunc

	// The application's preemptive view: row pRow of pIndex.rows (the
	// scheduler's index when the last round ran) holds its fragment at each
	// cluster of pIndex.cids, cut at the round's instant, and pSeen the one
	// ViewsSince last reported there; nil stands for zero. pSeen is nil
	// before the application's first round.
	pIndex *fragIndex
	pRow   int
	pSeen  []*stepfunc.StepFunc
}

// fragIndex holds the last round's preemptive fragments: rows has one row
// per walked slot, one fragment per cluster of cids (sorted), and every
// application reads the row of its slot — the idle applications all read
// the idle slot's. The scheduler replaces its index when its clusters
// change and never writes cids once built. gone holds, per application, the
// non-zero fragments ViewsSince last reported at clusters the replaced
// index had and this one has not; ViewsSince reports each once more.
type fragIndex struct {
	cids []view.ClusterID
	rows []*stepfunc.StepFunc
	gone map[*appCache][]goneFrag
}

// goneFrag is a fragment last reported at a cluster the scheduler no longer
// manages.
type goneFrag struct {
	cid view.ClusterID
	f   *stepfunc.StepFunc
}

// clusterWalk caches one cluster's eqSchedule interval walk: the exact
// input profiles (by identity — StepFuncs are immutable), the per-slot
// output fragments, and each fragment as last cut at a round's instant.
// The slots whose input is zero share one output and one cut: a slot that
// requests nothing is shown the hypothetical share, whatever its place
// (divideInterval). ordered records that some interval's division depended
// on the slots' order; otherwise a slot's output is a function of its own
// input and the interval's totals, and a reordering of the inputs reorders
// the outputs alike (permute).
type clusterWalk struct {
	key     []*stepfunc.StepFunc // [vin fragment, slot fragments...]
	frags   []*stepfunc.StepFunc // per-slot outputs
	cuts    []cutFrag            // per slot, then the zero-input slots' one
	ordered bool
}

// newClusterWalk walks one cluster's input profiles: profs[0] is the vin
// fragment, profs[1+j] walked slot j's occupancy fragment. Only the distinct
// slots are walked, the non-zero ones in order and the first zero-input one:
// the other zero-input slots would repeat its output, and leaving them out
// changes no interval's division, nor ordered. The walk it replaces, when
// not nil, is recycled: its arrays hold the new walk.
func newClusterWalk(old *clusterWalk, profs []*stepfunc.StepFunc, nw int, policy PreemptPolicy, sc *scratch) *clusterWalk {
	in := append(sc.walkIn[:0], profs[0])
	zeroIn := false
	for _, f := range profs[1 : nw+1] {
		if f.IsZero() {
			if zeroIn {
				continue
			}
			zeroIn = true
		}
		in = append(in, f)
	}
	sc.walkIn = in
	outs, ordered := walkCluster(in, len(in)-1, policy, sc)
	w := old
	if w == nil {
		w = &clusterWalk{}
	}
	w.key = append(w.key[:0], profs...)
	clear(w.key[len(w.key):cap(w.key)]) // pin no profile of the old walk
	w.frags = grown(w.frags, nw)
	clear(w.frags[nw:cap(w.frags)])
	w.cuts = grown(w.cuts, nw+1)
	clear(w.cuts[:cap(w.cuts)])
	w.ordered = ordered
	k, zero := 0, -1 // the next walked output; the zero-input slots' one
	for j := range w.frags {
		if profs[1+j].IsZero() && zero >= 0 {
			w.frags[j] = outs[zero]
			continue
		}
		if profs[1+j].IsZero() {
			zero = k
		}
		w.frags[j] = outs[k]
		k++
	}
	return w
}

// permute reorders an order-free walk to the input profiles profs when they
// are its key's slot profiles in another order, and reports whether it did.
// A slot that holds the input it held keeps its output; a moved input takes
// its output and cut along, so an application a dynamic policy moved keeps
// its fragments.
func (w *clusterWalk) permute(profs []*stepfunc.StepFunc, sc *scratch) bool {
	if w.ordered || len(profs) != len(w.key) || profs[0] != w.key[0] {
		return false
	}
	moved := sc.moved[:0]
	for j := range w.frags {
		if profs[1+j] != w.key[1+j] {
			moved = append(moved, j)
		}
	}
	sc.moved = moved
	if len(moved) < 2 {
		return false // one changed input is no reordering
	}
	// slotOf maps an input to the first moved slot that held it and is not
	// matched yet, nextSame to the next one.
	if sc.slotOf == nil {
		sc.slotOf = make(map[*stepfunc.StepFunc]int)
	}
	clear(sc.slotOf)
	sc.nextSame = grown(sc.nextSame, len(w.frags))
	for k := len(moved) - 1; k >= 0; k-- {
		i := moved[k]
		sc.nextSame[i] = -1
		if j, ok := sc.slotOf[w.key[1+i]]; ok {
			sc.nextSame[i] = j
		}
		sc.slotOf[w.key[1+i]] = i
	}
	from := grown(sc.from, len(moved))
	sc.from = from
	for k, j := range moved {
		i, ok := sc.slotOf[profs[1+j]]
		if !ok || i < 0 {
			return false
		}
		sc.slotOf[profs[1+j]] = sc.nextSame[i]
		from[k] = i
	}
	frags, cuts := grown(sc.permFrags, len(moved)), grown(sc.permCuts, len(moved))
	for k, i := range from {
		frags[k], cuts[k] = w.frags[i], w.cuts[i]
	}
	for k, j := range moved {
		w.frags[j], w.cuts[j], w.key[1+j] = frags[k], cuts[k], profs[1+j]
	}
	clear(frags) // pin nothing
	clear(cuts)
	sc.permFrags, sc.permCuts = frags, cuts
	return true
}

// cutFrag is one slot fragment trimmed at instant at: the same function for
// every instant in [at, until), until being the fragment's next breakpoint.
type cutFrag struct {
	f         *stepfunc.StepFunc // nil until first cut
	at, until float64
}

// cut returns slot j's fragment trimmed at t0 (stepfunc.TrimBefore). The
// trimmed object is kept while t0 stays in [at, until) of its last cut, so
// a walk reused across rounds hands out the same fragments until the clock
// crosses one of their breakpoints.
func (w *clusterWalk) cut(j int, t0 float64) *stepfunc.StepFunc {
	c := &w.cuts[j]
	if w.key[1+j].IsZero() {
		c = &w.cuts[len(w.frags)]
	}
	if c.f != nil && c.at <= t0 && t0 < c.until {
		return c.f
	}
	f := w.frags[j]
	*c = cutFrag{f: f.TrimBefore(t0), at: t0, until: f.NextBreakpoint(t0)}
	return c.f
}

// SetIncremental switches incremental recomputation on or off (default on).
// With it off every Schedule round recomputes everything from scratch; the
// differential tests pin the two modes byte-identical.
func (s *Scheduler) SetIncremental(on bool) {
	s.incremental = on
	s.bumpStruct() // flush every cache on the next round
}

// Stats returns the cumulative incremental-recomputation counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

// MarkAppDirty reports that the application's request state was mutated
// outside the scheduler (request added/withdrawn/finished, allocation
// started, attributes rewritten). The next Schedule round recomputes the
// application's cached artifacts; unmarked mutations make cached rounds
// stale, so every RMS mutation path must call this. Unknown IDs are
// ignored.
func (s *Scheduler) MarkAppDirty(id int) {
	if a, ok := s.byID[id]; ok {
		a.cache.valid = false
	}
}

// bumpStruct invalidates everything on the next round: cluster topology
// and capacity, clip and policies all feed every artifact. The keys go at
// once: they must not pin the views of an application removed before the
// next round.
func (s *Scheduler) bumpStruct() {
	s.structGen++
	dropKey(&s.cbfMuts)
	dropKey(&s.pvMuts)
}

// invalidateDerivedLocked clears every derived cache while keeping the
// per-app request-state artifacts (they depend only on the request sets,
// which structural changes do not touch — paths that do touch them mark the
// app dirty as well).
func (s *Scheduler) invalidateDerivedLocked() {
	for _, a := range s.apps {
		a.cache.cbfOK = false
		a.cache.eqOK = false
		a.cache.grantFrags = a.cache.grantFrags[:0]
	}
	s.foldsReady = false
	s.pvClampOK = false
	clear(s.eqWalks)
}

// allFixed reports whether every request of the set is Fixed — i.e. the
// set has no request whose schedule the round computes from the clock.
func allFixed(rs *request.Set) bool {
	for _, r := range rs.All() {
		if !r.Fixed {
			return false
		}
	}
	return true
}

// captureRects records the fixed requests' allocation rectangles in set
// order. withAlloc selects whether the (availability-dependent) NAlloc or
// the requested N is recorded.
func captureRects(rs *request.Set, dst []rectA, withAlloc bool) []rectA {
	dst = dst[:0]
	for _, r := range rs.All() {
		if !r.Fixed {
			continue
		}
		n := r.N
		if withAlloc {
			n = r.NAlloc
		}
		startedAt := math.Inf(-1)
		if r.Started() {
			startedAt = r.StartedAt
		}
		dst = append(dst, rectA{
			cid: r.Cluster, t0: r.ScheduledAt, dur: r.Duration,
			startedAt: startedAt, n: n, wrapped: r.Wrapped,
		})
	}
	return dst
}

// addRectClusters marks the clusters of every rect dirty.
func addRectClusters(dst map[view.ClusterID]struct{}, rects []rectA) {
	for i := range rects {
		dst[rects[i].cid] = struct{}{}
	}
}

// dirtyNPFolds marks the clusters fixed ¬P rects feed: started ¬P
// allocations feed the preemptible fold, their wrapped excess the
// non-preemptive one.
func dirtyNPFolds(npFold, pFold map[view.ClusterID]struct{}, rects []rectA) {
	addRectClusters(pFold, rects)
	for i := range rects {
		if rects[i].wrapped {
			npFold[rects[i].cid] = struct{}{}
		}
	}
}

// refreshAppLocked recomputes a dirty application's request-state artifacts
// and reports which base-fold clusters they dirtied. It preserves eqOK, and
// a settled application's cbfOK, when the recomputed artifacts are identical
// to the cached ones (the common case when the mutation hit only one of the
// three sets). A queued application's pending requests are not in its rects,
// so a withdrawn one or a moved NotBefore floor leaves them equal: its CBF
// step is dropped on any refresh.
func (s *Scheduler) refreshAppLocked(a *AppState, now float64, npFold, pFold map[view.ClusterID]struct{}) {
	c := &a.cache
	oldPA, oldNP := c.paRects, c.npRects
	oldPASettled, oldNPSettled := c.paSettled, c.npSettled

	a.startedPA = toViewScratch(a.PA, nil, now, &s.sc)
	a.startedNP = toViewScratch(a.NP, nil, now, &s.sc)
	newPA := captureRects(a.PA, s.sc.paScratch[:0], true)
	newNP := captureRects(a.NP, s.sc.npScratch[:0], true)
	c.paSettled = allFixed(a.PA)
	c.npSettled = allFixed(a.NP)

	if !slices.Equal(oldPA, newPA) {
		addRectClusters(npFold, oldPA)
		addRectClusters(npFold, newPA)
	}
	if !slices.Equal(oldNP, newNP) {
		dirtyNPFolds(npFold, pFold, oldNP)
		dirtyNPFolds(npFold, pFold, newNP)
	}
	c.cbfOK = c.cbfOK && oldPASettled && oldNPSettled &&
		slices.Equal(oldPA, newPA) && slices.Equal(oldNP, newNP) &&
		c.paSettled && c.npSettled
	// Swap the freshly captured lists into the cache and recycle the old
	// backing arrays as the next refresh's scratch.
	c.paRects, s.sc.paScratch = newPA, oldPA
	c.npRects, s.sc.npScratch = newNP, oldNP

	// The eqSchedule caches survive a refresh only when the P set's fixed
	// structure is untouched (NAlloc values are re-verified against the
	// current availability at reuse time, so they are excluded here).
	if c.eqOK {
		freshP := captureRects(a.P, s.sc.rectScratch[:0], false)
		s.sc.rectScratch = freshP
		if !slices.Equal(c.pRects, freshP) || allFixed(a.P) != c.pSettled {
			c.eqOK = false
		}
	}
	c.valid = true
}

// rebuildFoldClusterLocked recomputes one cluster's entries of the base
// availability folds: baseNP (capacity minus started pre-allocations minus
// wrapped ¬P excess) and basePv (capacity minus started ¬P allocations).
// The per-cluster op sequence matches the full recomputation exactly —
// capacity rectangle, one k-way sum subtraction in application order, then
// the wrapped rectangles in (application, set) order — so the rebuilt
// profiles are byte-identical to a from-scratch round.
func (s *Scheduler) rebuildFoldClusterLocked(cid view.ClusterID) {
	s.stats.FoldClustersRecomputed++
	var base *stepfunc.StepFunc
	if n := s.clusters[cid]; n > 0 {
		base = stepfunc.Rect(0, math.Inf(1), n)
	} else {
		base = stepfunc.Zero()
	}

	fs := s.sc.foldFns[:0]
	for _, a := range s.apps {
		if f, ok := a.startedPA.Lookup(cid); ok && f != nil {
			fs = append(fs, f)
		}
	}
	np := base
	if len(fs) > 0 {
		np = np.Sub(stepfunc.SumAll(fs))
	}
	for _, a := range s.apps {
		for i := range a.cache.npRects {
			r := &a.cache.npRects[i]
			if r.wrapped && r.cid == cid {
				np = np.AddRect(r.t0, r.dur, -r.n)
			}
		}
	}
	s.baseNP.Set(cid, np)

	fs = fs[:0]
	for _, a := range s.apps {
		if f, ok := a.startedNP.Lookup(cid); ok && f != nil {
			fs = append(fs, f)
		}
	}
	s.sc.foldFns = fs
	pv := base
	if len(fs) > 0 {
		pv = pv.Sub(stepfunc.SumAll(fs))
	}
	s.basePv.Set(cid, pv)
}

// rebuildFoldsLocked rebuilds the dirty clusters of the base folds, or all
// relevant clusters when the folds are not ready at all. It reports whether
// the non-preemptive and preemptible folds changed.
func (s *Scheduler) rebuildFoldsLocked(npFold, pFold map[view.ClusterID]struct{}) (npChanged, pChanged bool) {
	if !s.foldsReady {
		s.baseNP.Clear()
		s.basePv.Clear()
		clear(npFold)
		clear(pFold)
		for cid := range s.clusters {
			npFold[cid] = struct{}{}
		}
		for _, a := range s.apps {
			addRectClusters(npFold, a.cache.paRects)
			addRectClusters(npFold, a.cache.npRects)
		}
		for cid := range npFold {
			s.rebuildFoldClusterLocked(cid)
		}
		s.foldsReady = true
		s.pvClampOK = false
		return true, true
	}
	for cid := range pFold {
		if _, dup := npFold[cid]; !dup {
			s.rebuildFoldClusterLocked(cid)
		}
	}
	for cid := range npFold {
		// rebuildFoldClusterLocked refreshes both folds for the cluster; a
		// baseNP-only dirty cluster rebuilds a byte-identical basePv entry
		// (its inputs are unchanged), so basePv-derived caches stay valid.
		s.rebuildFoldClusterLocked(cid)
	}
	npChanged = len(npFold) > 0
	pChanged = len(pFold) > 0
	if pChanged {
		s.pvClampOK = false
	}
	return npChanged, pChanged
}

// allocStable reports whether re-evaluating the availability-dependent
// alloc() of every request in the set against v still yields want (one
// entry per request, set order). It is the exact reuse condition for the
// time-dependent part of a cached toView: the alloc window slides with the
// clock, so the cached NAllocs hold iff the profile value over the new
// window is unchanged.
func allocStable(rs *request.Set, v view.View, now float64, want []int) bool {
	all := rs.All()
	if len(want) != len(all) {
		return false
	}
	for i, r := range all {
		t0, t1 := allocWindow(r, now)
		if v.Alloc(r.Cluster, r.N, t0, t1-t0) != want[i] {
			return false
		}
	}
	return true
}

// grantAllocStable is allocStable against the final (granted-view) NAlloc
// attributes the last round left on the requests.
func grantAllocStable(rs *request.Set, v view.View, now float64) bool {
	for _, r := range rs.All() {
		t0, t1 := allocWindow(r, now)
		if v.Alloc(r.Cluster, r.N, t0, t1-t0) != r.NAlloc {
			return false
		}
	}
	return true
}
