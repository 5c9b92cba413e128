package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// AppState is the per-application request state stored by the RMS (§A.2):
// one set per request type, plus the connection time used for the
// Conservative Back-Filling order of §3.2 ("applications are sorted in a
// list based on the time the applications connected to the RMS").
type AppState struct {
	ID          int
	ConnectedAt float64

	// Tenant is the queue path the application belongs to ("org/team/q",
	// empty for untagged sessions). The core scheduler never reads it;
	// tenant-aware SchedulingPolicies (internal/tenants) key their
	// ordering, admission, and preemption decisions on it.
	Tenant string

	PA *request.Set // pre-allocation requests R_PA
	NP *request.Set // non-preemptible requests R_¬P
	P  *request.Set // preemptible requests R_P

	// idx is the application's current position in Scheduler.apps; it is
	// maintained by every mutation so RemoveApp is O(1) instead of a
	// linear scan. admitted records the last dynamic round's admission
	// decision (see SchedulingPolicy.Admit).
	idx      int
	admitted bool

	// Occupancy views of the started/fixed requests, maintained by
	// refreshAppLocked and reused across rounds while the sets are clean.
	startedPA view.View
	startedNP view.View

	// cache holds the application's incremental-recomputation artifacts.
	cache appCache
}

// NewAppState returns an empty application state.
func NewAppState(id int, connectedAt float64) *AppState {
	return &AppState{
		ID:          id,
		ConnectedAt: connectedAt,
		PA:          request.NewSet(),
		NP:          request.NewSet(),
		P:           request.NewSet(),
	}
}

// SetFor returns the request set holding requests of the given type.
func (a *AppState) SetFor(t request.Type) *request.Set {
	switch t {
	case request.PreAlloc:
		return a.PA
	case request.NonPreempt:
		return a.NP
	default:
		return a.P
	}
}

// Requests returns all of the application's requests across the three sets.
func (a *AppState) Requests() []*request.Request {
	var out []*request.Request
	out = append(out, a.PA.All()...)
	out = append(out, a.NP.All()...)
	out = append(out, a.P.All()...)
	return out
}

// Views returns the views the last Schedule round computed for the
// application (Algorithm 4's V_¬P^(i) and V_P^(i)), nil before its first
// round; once RemoveApp dropped it, its preemptive view is nil. nonPreempt is what it can see for pre-allocations and
// non-preemptible requests; preempt is what it can see for preemptible
// requests, trimmed at the round's instant (stepfunc.TrimBefore), and a drop
// below its current preemptible allocation signals that it must release
// resources. nonPreempt is the scheduler's map: it is never written once
// handed out, and a later round hands over the same map only with the same
// value. preempt is built from the application's fragments on every call;
// ViewsSince reports them as changes instead.
func (a *AppState) Views() (nonPreempt, preempt view.View) {
	c := &a.cache
	if c.pSeen == nil {
		return c.cbfOut, nil
	}
	frags := c.pFrags()
	n := 0
	for _, f := range frags {
		if f != nil {
			n++
		}
	}
	preempt = view.NewSized(n)
	for i, f := range frags {
		if f != nil {
			preempt.Put(c.pIndex.cids[i], f)
		}
	}
	return c.cbfOut, preempt
}

// ViewsSince is Views for a caller that keeps what it was told: it returns
// the non-preemptive view and reports the preemptive one as changes since
// its previous call. report is called for every cluster whose fragment is
// not the object the previous call reported there — for every cluster when
// all is set — with that object (was) and the current one (now), and for
// every cluster the scheduler has dropped since with a non-zero was and a
// nil now. nil stands for the zero profile; fragments are trimmed at the
// round's instant, and one kept across rounds is kept only while its value
// holds, so a cluster not reported has the value reported last.
func (a *AppState) ViewsSince(all bool, report func(cid view.ClusterID, was, now *stepfunc.StepFunc)) (nonPreempt view.View) {
	c := &a.cache
	if c.pSeen == nil {
		return c.cbfOut
	}
	x := c.pIndex
	if gone, ok := x.gone[c]; ok {
		delete(x.gone, c)
		for _, g := range gone {
			report(g.cid, g.f, nil)
		}
	}
	for i, f := range c.pFrags() {
		if was := c.pSeen[i]; all || was != f {
			c.pSeen[i] = f
			report(x.cids[i], was, f)
		}
	}
	return c.cbfOut
}

// Scheduler holds the global scheduling state: the resource model and the
// per-application request sets. It implements Algorithm 4 (§A.5).
type Scheduler struct {
	clusters map[view.ClusterID]int
	apps     []*AppState       // CBF (connection) order, sorted when !appsDirty
	byID     map[int]*AppState // ID → state index for O(1) lookups
	policy   PreemptPolicy

	// appsDirty marks apps as unsorted (lazy re-sort: AddApp appends and
	// RemoveApp swap-deletes; ensureSortedLocked restores connection
	// order before any ordered iteration).
	appsDirty bool

	// schedPolicy orders and admits applications each round (FIFOPolicy
	// by default — the paper's connection order, every app admitted).
	// orderBuf is the reusable ordering buffer handed to dynamic policies.
	schedPolicy SchedulingPolicy
	orderBuf    []*AppState

	// cbfMuts is the key of the CBF chain cache: the views the last round's
	// CBF pass subtracted from the running non-preemptive availability, in
	// order. pvMuts is the key of the preemptible input (pvClamp): the ¬P
	// occupancies the pass subtracted from basePv, in order. The *Next
	// slices are the buffers this round's sequences are built in.
	// Structural changes drop both keys (bumpStruct), and so does the
	// removal of an application whose views are in one (RemoveApp).
	cbfMuts, cbfMutsNext []view.View
	pvMuts, pvMutsNext   []view.View

	// cbfAvail is the last running availability a CBF pass built: the base
	// fold minus the first cbfAvailAt views of cbfMuts. It is the pass's
	// own map, never handed out, so the next pass subtracts into it.
	cbfAvail   view.View
	cbfAvailAt int

	// clip, when non-nil, limits the non-preemptive view presented to every
	// application (§3.2's suggested pre-allocation limit).
	clip view.View

	// sc holds the buffers reused across Schedule rounds.
	sc scratch

	// Incremental-recomputation state (see incremental.go). structGen is
	// bumped by every structural mutation and compared against cacheGen at
	// the top of Schedule; a mismatch flushes every derived cache.
	incremental bool
	structGen   uint64
	cacheGen    uint64

	// Base availability folds, maintained per cluster: baseNP is the full
	// capacity minus every started pre-allocation minus the wrapped ¬P
	// excess; basePv is the capacity minus every started ¬P allocation.
	foldsReady bool
	baseNP     view.View
	basePv     view.View
	npFoldDirt map[view.ClusterID]struct{}
	pFoldDirt  map[view.ClusterID]struct{}

	// pvClamp caches the eqSchedule input, clampMin(0) of basePv minus the
	// pvMuts views, so it keeps stable profile identities across rounds.
	// pvClampOK marks it current for the basePv it was computed from.
	pvClamp   view.View
	pvClampOK bool

	// eqSchedule caches: per-cluster interval walks. pIndex is the cluster
	// list the applications' preemptive fragments are indexed by, brought to
	// the clusters by the first round after a structural change (pGen: the
	// structGen it was checked at).
	eqWalks map[view.ClusterID]*clusterWalk
	pIndex  *fragIndex
	pGen    uint64

	stats SchedStats
}

// NewScheduler creates a scheduler managing the given clusters
// (cluster ID → node count).
func NewScheduler(clusters map[view.ClusterID]int) *Scheduler {
	cp := make(map[view.ClusterID]int, len(clusters))
	for cid, n := range clusters {
		if n < 0 {
			panic(fmt.Sprintf("core: negative capacity for cluster %s", cid))
		}
		cp[cid] = n
	}
	return &Scheduler{
		clusters:    cp,
		byID:        make(map[int]*AppState),
		schedPolicy: FIFOPolicy{},
		incremental: true,
		baseNP:      view.New(),
		basePv:      view.New(),
		npFoldDirt:  make(map[view.ClusterID]struct{}),
		pFoldDirt:   make(map[view.ClusterID]struct{}),
		eqWalks:     make(map[view.ClusterID]*clusterWalk),
	}
}

// SetPolicy selects the preemptible-resource division policy.
func (s *Scheduler) SetPolicy(p PreemptPolicy) {
	s.policy = p
	s.bumpStruct()
}

// Policy returns the active preemptible-resource division policy.
func (s *Scheduler) Policy() PreemptPolicy { return s.policy }

// SetClip installs an administrator limit on non-preemptive views
// (nil removes the limit).
func (s *Scheduler) SetClip(v view.View) {
	s.clip = v
	s.bumpStruct()
}

// Capacity returns the node count of cluster cid.
func (s *Scheduler) Capacity(cid view.ClusterID) int { return s.clusters[cid] }

// AddCluster adds a cluster to the resource model, e.g. one migrated in from
// another scheduler shard (internal/federation). The next Schedule round
// includes its capacity in every view. Adding an existing cluster panics.
func (s *Scheduler) AddCluster(cid view.ClusterID, n int) {
	if n < 0 {
		panic(fmt.Sprintf("core: negative capacity for cluster %s", cid))
	}
	if _, dup := s.clusters[cid]; dup {
		panic(fmt.Sprintf("core: duplicate cluster %s", cid))
	}
	s.clusters[cid] = n
	s.bumpStruct()
}

// SetCapacity changes a cluster's node count in place — the node-level
// fault path: a failed node shrinks the cluster, a recovered one grows it
// back. Capacity is an input to the cached per-cluster base-availability
// folds (rebuildFoldClusterLocked), so the change bumps the structural
// generation: every cached artifact is invalidated and the next Schedule
// round recomputes from scratch, exactly as a full-recompute round would.
// Setting an unknown cluster or a negative capacity panics.
func (s *Scheduler) SetCapacity(cid view.ClusterID, n int) {
	if n < 0 {
		panic(fmt.Sprintf("core: negative capacity for cluster %s", cid))
	}
	old, ok := s.clusters[cid]
	if !ok {
		panic(fmt.Sprintf("core: setting capacity of unknown cluster %s", cid))
	}
	if old == n {
		return
	}
	s.clusters[cid] = n
	s.bumpStruct()
}

// RemoveCluster removes a cluster from the resource model. The caller owns
// the migration of any request state that references it: the scheduler keeps
// no per-cluster state beyond the capacity entry (round scratch is rebuilt
// every Schedule call). Removing an unknown cluster panics.
func (s *Scheduler) RemoveCluster(cid view.ClusterID) {
	if _, ok := s.clusters[cid]; !ok {
		panic(fmt.Sprintf("core: removing unknown cluster %s", cid))
	}
	delete(s.clusters, cid)
	s.bumpStruct()
}

// AddApp registers an application at the given connection time and returns
// its state. Membership is not structure: the new application's sets are
// empty, so it subtracts and occupies nothing, and the next round computes
// its steps and views while every cache stays warm.
func (s *Scheduler) AddApp(id int, connectedAt float64) *AppState {
	if _, dup := s.byID[id]; dup {
		panic(fmt.Sprintf("core: duplicate application ID %d", id))
	}
	a := NewAppState(id, connectedAt)
	a.idx = len(s.apps)
	s.apps = append(s.apps, a)
	s.byID[id] = a
	s.appsDirty = true
	return a
}

// RemoveApp unregisters an application (session ended or killed).
// It returns the removed state, or nil if the ID is unknown. The removal
// is O(1): the tracked slice index lets it swap-delete and the list is
// re-sorted lazily before the next ordered iteration, so tearing down a
// fleet of n applications costs O(n), not O(n²).
//
// Like AddApp it flushes no cache. The clusters of the application's
// started allocations become fold dirt for the next round, and a key
// holding one of its subtracted views is dropped at once, so no cache keeps
// a removed application's views alive. A subtraction missing from the next
// round breaks the CBF chain at its position, and an occupancy missing from
// it changes the walk keys.
func (s *Scheduler) RemoveApp(id int) *AppState {
	a, ok := s.byID[id]
	if !ok {
		return nil
	}
	delete(s.byID, id)
	i, last := a.idx, len(s.apps)-1
	if i != last {
		s.apps[i] = s.apps[last]
		s.apps[i].idx = i
		s.appsDirty = true
	}
	s.apps[last] = nil
	s.apps = s.apps[:last]

	c := &a.cache
	if s.pIndex != nil {
		delete(s.pIndex.gone, c)
	}
	c.pSeen = nil // its row is another application's from the next round on
	addRectClusters(s.npFoldDirt, c.paRects)
	dirtyNPFolds(s.npFoldDirt, s.pFoldDirt, c.npRects)
	if c.cbfPA.Len() > 0 || c.cbfExcess.Len() > 0 {
		dropKey(&s.cbfMuts)
	}
	if c.cbfNP.Len() > 0 {
		dropKey(&s.pvMuts)
		s.pvClampOK = false
	}
	return a
}

// App returns the state of the application with the given ID, or nil.
func (s *Scheduler) App(id int) *AppState { return s.byID[id] }

// Apps returns the applications in scheduling (connection) order.
func (s *Scheduler) Apps() []*AppState {
	s.ensureSortedLocked()
	return s.apps
}

// ensureSortedLocked restores connection order after lazy mutations.
func (s *Scheduler) ensureSortedLocked() {
	if !s.appsDirty {
		return
	}
	s.sortApps()
	s.appsDirty = false
}

func (s *Scheduler) sortApps() {
	sort.SliceStable(s.apps, func(i, j int) bool {
		if s.apps[i].ConnectedAt != s.apps[j].ConnectedAt {
			return s.apps[i].ConnectedAt < s.apps[j].ConnectedAt
		}
		return s.apps[i].ID < s.apps[j].ID
	})
	for i, a := range s.apps {
		a.idx = i
	}
}

// Schedule runs the main scheduling algorithm (Algorithm 4) at time now.
// It computes views for every application (AppState.Views), sets the
// ScheduledAt/NAlloc attributes of every request, and returns the requests
// whose start time has arrived and that have not started, parents before
// children. Marking requests as started (and allocating node IDs) is the
// caller's job: the RMS may have to defer a start until preempted resources
// are actually released (§A.5).
//
// Schedule recomputes incrementally: per-application artifacts and
// per-cluster availability folds are cached across rounds and recomputed
// only for applications marked dirty (MarkAppDirty) and the clusters their
// changes touched, under a stable and a dynamic SchedulingPolicy alike.
// Outputs are bit-identical to a full recomputation — a cached value is
// reused only when its exact inputs are unchanged (see incremental.go).
func (s *Scheduler) Schedule(now float64) []*request.Request {
	s.stats.Rounds++
	s.ensureSortedLocked()

	if s.structGen != s.cacheGen || !s.incremental {
		s.invalidateDerivedLocked()
		if !s.incremental {
			for _, a := range s.apps {
				a.cache.valid = false
			}
		}
		s.cacheGen = s.structGen
		s.stats.FullRounds++
	}

	// Ask the policy for this round's iteration order and admissions.
	// The stable fast path skips the per-application policy calls
	// entirely: order is connection order and everything is admitted,
	// keeping the round byte-identical to the pre-policy scheduler.
	apps := s.apps
	dynamic := !s.schedPolicy.Stable()
	if dynamic {
		info := RoundInfo{Now: now, Clusters: s.clusters}
		ordered := s.schedPolicy.Order(info, s.apps, s.orderBuf[:0])
		if len(ordered) != len(s.apps) {
			panic(fmt.Sprintf("core: policy %q returned %d apps, want %d",
				s.schedPolicy.Name(), len(ordered), len(s.apps)))
		}
		// Keep the policy's grown ordering buffer for the next round —
		// unless the policy returned the apps slice itself, which must
		// not become the next round's scratch.
		if len(ordered) > 0 && &ordered[0] != &s.apps[0] {
			s.orderBuf = ordered[:0]
		}
		for _, a := range ordered {
			a.admitted = s.schedPolicy.Admit(info, a)
		}
		apps = ordered
	}

	// Refresh the request-state artifacts of dirty applications (lines 3–5
	// worth of per-app folds) and rebuild the base availability folds for
	// the clusters those changes and the removals since the last round
	// touched (lines 1–5 of Algorithm 4, maintained per cluster instead of
	// recomputed from scratch).
	for _, a := range s.apps {
		if a.cache.valid {
			s.stats.ArtifactsReused++
			continue
		}
		s.stats.ArtifactsRecomputed++
		s.refreshAppLocked(a, now, s.npFoldDirt, s.pFoldDirt)
	}
	npChanged, _ := s.rebuildFoldsLocked(s.npFoldDirt, s.pFoldDirt)
	clear(s.npFoldDirt)
	clear(s.pFoldDirt)

	// Compute non-preemptive views and start times of pre-allocations and
	// non-preemptible requests (lines 6–11), applications in CBF order,
	// with chain reuse. The running availability an application meets is
	// the base fold minus the views subtracted before it, so while the base
	// fold is unchanged and this round has subtracted the same view objects
	// as the last round up to the application's step, it meets a
	// byte-identical availability, and its cached step — view, subtractions
	// and request attributes — stands in for its recomputation as long as
	// the clock is inside the step's horizon (cbfStep). The first
	// subtraction that differs — a recomputed application's fresh view, a
	// view moved by a dynamic policy's new order or dropped by a refused
	// admission or a removal — breaks the chain for everything after it.
	// Applications that subtract nothing, the request-less and the settled
	// without wrapped excess, leave it intact wherever the policy puts them.
	// No other cache depends on the order: the base folds are
	// order-independent sums, eqSchedule's caches carry the identity of
	// their inputs.
	chain := !npChanged
	muts := s.cbfMutsNext[:0]
	pvMuts := s.pvMutsNext[:0] // ¬P occupancies, subtracted from basePv below
	held := 0                  // leading entries of muts that are last round's

	// The running availability (resources free for pre-allocations and
	// wrapped ¬P) is the base fold minus muts, built only where a step reads
	// it: vNP holds the first `applied` entries subtracted, in order, the op
	// sequence a full recomputation uses. It starts from the map the last
	// pass built (cbfAvail) when the chain holds through that map's position,
	// and from a clone of the base fold otherwise; the base fold itself is
	// never written.
	vNP, applied := s.baseNP, 0
	availNP := func() view.View {
		if applied == len(muts) {
			return vNP
		}
		if applied == 0 {
			if s.cbfAvail != nil && s.cbfAvailAt <= held {
				vNP, applied = s.cbfAvail, s.cbfAvailAt
			} else {
				vNP = vNP.Clone()
			}
		}
		for _, m := range muts[applied:] {
			vNP.MutSub(m)
		}
		applied = len(muts)
		return vNP
	}
	// Applications with no PA and no ¬P requests neither take space nor
	// change the running availability, so every one of them in a run of
	// consecutive request-less applications sees the same view: compute it
	// once per run and share the map (consumers treat pushed views as
	// immutable). With federated sessions connected to every shard
	// (internal/federation.Connect), most applications on a shard are
	// request-less there, and this keeps the round cost proportional to the
	// applications the shard actually schedules.
	var idleViewNP, idleOld view.View // idleOld: the last entry compared with it
	for _, a := range apps {
		c := &a.cache
		if dynamic && !a.admitted {
			// Not admitted this round: pending work stays unscheduled,
			// started/fixed allocations keep counting (they are already
			// folded into the base availability), and the application is
			// shown its own pre-allocated space plus the free space.
			s.stats.CBFRecomputed++
			unschedulePending(a.PA)
			unschedulePending(a.NP)
			vNPFree := availNP().ClampMin(0)
			viewNP := a.startedPA.Add(vNPFree)
			if s.clip != nil {
				viewNP = viewNP.Clip(s.clip)
			}
			c.cbfOut, c.cbfOK = kept(c.cbfOut, viewNP.ClampMin(0)), false
			c.cbfPA, c.cbfExcess, c.cbfNP = nil, nil, nil
			continue
		}
		if chain && c.cbfOK && c.cbfAt == len(muts) && c.cbfFrom <= now && now <= c.cbfUntil {
			s.stats.CBFReused++
		} else {
			c.cbfAt = len(muts)
			s.stats.CBFRecomputed++
			if a.PA.Len() == 0 && a.NP.Len() == 0 {
				if idleViewNP == nil {
					vNPFree := availNP().ClampMin(0)
					viewNP := view.View(nil).Add(vNPFree)
					if s.clip != nil {
						viewNP = viewNP.Clip(s.clip)
					}
					idleViewNP, idleOld = viewNP.ClampMin(0), nil
				}
				// Keep this application's map if its value held and hand the
				// run on whichever map it got. The entries of a run are mostly
				// one map, and a map already compared needs no second
				// comparison.
				if old := c.cbfOut; !view.Same(old, idleOld) {
					idleViewNP, idleOld = kept(old, idleViewNP), old
				}
				c.cbfOut, c.cbfPA, c.cbfExcess, c.cbfNP = idleViewNP, nil, nil, nil
				c.cbfOK, c.cbfFrom, c.cbfUntil = true, math.Inf(-1), math.Inf(1)
				continue
			}
			idleViewNP = nil // this application may change vNP below
			s.cbfStep(a, availNP(), now)
		}

		// Update the running availability (lines 10–11): newly scheduled
		// pre-allocations and the wrapped excess of non-preemptible requests
		// consume non-preemptible space; all scheduled non-preemptible
		// requests consume preemptible space.
		if c.cbfPA.Len() > 0 || c.cbfExcess.Len() > 0 {
			for _, m := range [2]view.View{c.cbfPA, c.cbfExcess} {
				if m.Len() > 0 {
					if muts, chain = s.noteCBFMut(muts, m, chain); chain {
						held = len(muts)
					}
				}
			}
			idleViewNP = nil // the run of request-less applications ends here
		}
		if c.cbfNP.Len() > 0 {
			pvMuts = append(pvMuts, c.cbfNP)
		}
	}
	// Keep the last map this pass built for the next one, or last round's
	// while it is still a prefix of this round's subtractions.
	if applied > 0 {
		s.cbfAvail, s.cbfAvailAt = vNP, applied
	} else if held < s.cbfAvailAt {
		s.cbfAvail, s.cbfAvailAt = nil, 0
	}
	clear(s.cbfMuts)
	s.cbfMuts, s.cbfMutsNext = muts, s.cbfMuts[:0]

	// Compute preemptive views and start times of preemptible requests
	// (line 12).
	s.eqScheduleIncremental(apps, dynamic, s.preemptInput(pvMuts), now)

	// Collect requests whose start time has arrived (lines 13–14).
	var toStart []*request.Request
	for _, a := range apps {
		appendToStart(&toStart, a.PA.All(), now)
		appendToStart(&toStart, a.NP.All(), now)
		appendToStart(&toStart, a.P.All(), now)
	}
	slices.SortStableFunc(toStart, func(a, b *request.Request) int {
		if a.ScheduledAt != b.ScheduledAt {
			return cmp.Compare(a.ScheduledAt, b.ScheduledAt)
		}
		if da, db := depth(a), depth(b); da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return toStart
}

// cbfStep computes application a's CBF step against the running
// non-preemptive availability vNP at now and caches it: the view (cbfOut),
// the newly scheduled pre-allocations and the wrapped excess the pass
// subtracts from vNP (cbfPA, cbfExcess), and the scheduled ¬P occupancy it
// subtracts from the preemptible fold (cbfNP).
//
// The step is reusable (cbfOK) while vNP is byte-identical and now stays in
// [cbfFrom, cbfUntil]. A settled application (no pending PA/¬P request)
// never reads the clock. One whose pending requests are all FREE roots reads
// it only through fit's lower bound, and FindHole returns the earliest
// feasible start at or after that bound, so any later bound up to the
// earliest start fit assigned yields the same schedule, Wrapped flags and
// views. A pending request related to another one may move its parent, so
// such an application is recomputed every round.
func (s *Scheduler) cbfStep(a *AppState, vNP view.View, now float64) {
	sc, c := &s.sc, &a.cache

	// V_¬P^(i) = toView(R_PA) + V_¬P (line 7): the application sees its
	// own pre-allocated space plus the globally free space.
	vNPFree := vNP.ClampMin(0)
	viewNP := a.startedPA.Add(vNPFree)
	if s.clip != nil {
		viewNP = viewNP.Clip(s.clip)
	}

	// Schedule pending pre-allocations into the non-preemptive view
	// (line 8). This is Conservative Back-Filling: applications are
	// processed in connection order and each takes the first hole.
	voccPA := fitScratch(a.PA, viewNP, now, sc)

	// Space available for the application's non-preemptible requests:
	// all of its pre-allocations (started + newly scheduled) minus its
	// own started in-pre-allocation requests (line 9), plus the global
	// free space for requests that need implicit wrapping (§3.2).
	if sc.inPA == nil {
		sc.inPA = view.New()
	}
	sc.inPA.Clear()
	for _, r := range a.NP.All() {
		if r.Fixed && !r.Wrapped {
			sc.inPA.MutAddRect(r.Cluster, r.ScheduledAt, r.Duration, r.NAlloc)
		}
	}
	// Neither view leaves the step, so both are scratch maps, and fit reads
	// availNP only at its pending requests' clusters.
	if sc.paFree == nil {
		sc.paFree, sc.availNP = view.New(), view.New()
	}
	paFree, availNP := sc.paFree, sc.availNP
	paFree.Clear()
	a.startedPA.CopyInto(paFree)
	paFree.MutAdd(voccPA)
	paFree.MutSub(sc.inPA)
	availNP.Clear()
	for _, r := range a.NP.All() {
		if _, ok := availNP.Lookup(r.Cluster); !ok && !r.Fixed {
			availNP.Set(r.Cluster, paFree.Get(r.Cluster).Add(vNPFree.Get(r.Cluster)))
		}
	}
	voccNP := fitScratch(a.NP, availNP, now, sc)

	// Classify each pending request: wrapped if its allocation is not
	// fully covered by the application's pre-allocation space.
	for _, r := range a.NP.All() {
		if r.Fixed || math.IsInf(r.ScheduledAt, 1) {
			continue
		}
		w0, w1 := r.ScheduledAt, r.ScheduledAt+r.Duration
		r.Wrapped = paFree.Get(r.Cluster).MinOn(w0, w1) < r.NAlloc
	}
	excess := voccNP.Sub(paFree)
	excess.MutClampMin(0)

	// The step's horizon. A settled application keeps last round's view if
	// its value held.
	c.cbfOK, c.cbfFrom, c.cbfUntil = true, math.Inf(-1), math.Inf(1)
	for _, set := range [2]*request.Set{a.PA, a.NP} {
		for _, r := range set.All() {
			if r.Fixed {
				continue
			}
			c.cbfOK = c.cbfOK && r.RelatedTo == nil
			c.cbfFrom, c.cbfUntil = now, math.Min(c.cbfUntil, r.ScheduledAt)
		}
	}
	outNP := viewNP.ClampMin(0)
	if c.paSettled && c.npSettled {
		outNP = kept(c.cbfOut, outNP)
	}
	c.cbfOut, c.cbfPA, c.cbfExcess, c.cbfNP = outNP, voccPA, excess, voccNP
}

// preemptInput returns the eqSchedule input: basePv minus the ¬P
// occupancies this round's CBF pass scheduled (muts, in order), clamped at
// zero. While basePv is unchanged (pvClampOK) and muts are the objects last
// round's pass subtracted, it is last round's map, so every walk key, cut
// and granted view built on it holds. Otherwise it is computed with the op
// sequence a full recomputation uses and becomes the cached input.
func (s *Scheduler) preemptInput(muts []view.View) view.View {
	same := s.pvClampOK && len(muts) == len(s.pvMuts)
	for i := 0; same && i < len(muts); i++ {
		same = view.Same(muts[i], s.pvMuts[i])
	}
	if !same {
		if len(muts) == 0 {
			s.pvClamp = s.basePv.ClampMin(0)
		} else {
			vP := s.basePv.Clone()
			for _, m := range muts {
				vP.MutSub(m)
			}
			vP.MutClampMin(0)
			s.pvClamp = vP
		}
		s.pvClampOK = true
	}
	clear(s.pvMuts)
	s.pvMuts, s.pvMutsNext = muts, s.pvMuts[:0]
	return s.pvClamp
}

// dropKey empties a cache key, pinning none of the views it held.
func dropKey(key *[]view.View) {
	clear(*key)
	*key = (*key)[:0]
}

// noteCBFMut appends m, a view just subtracted from the CBF pass's running
// availability, to this round's sequence muts, and reports whether chain
// still holds: every view subtracted so far is the one the last round
// subtracted at the same position.
func (s *Scheduler) noteCBFMut(muts []view.View, m view.View, chain bool) ([]view.View, bool) {
	k := len(muts)
	return append(muts, m), chain && k < len(s.cbfMuts) && view.Same(s.cbfMuts[k], m)
}

// kept returns old, the view an application was last handed (nil if none),
// when it equals the recomputed view v by value, and v otherwise. A view
// whose value held thus keeps its identity across rounds, and a consumer
// tells an unchanged view by its address (rms.pushViewsLocked).
func kept(old, v view.View) view.View {
	if old != nil && old.Equal(v) {
		return old
	}
	return v
}

// appendToStart collects the requests of rs whose computed start time has
// arrived at time now. Held requests reserve capacity in the schedule but
// never start — a reservation coordinator commits (clears Held) or releases
// them.
func appendToStart(dst *[]*request.Request, rs []*request.Request, now float64) {
	for _, r := range rs {
		if r.Started() || r.Finished || r.Held {
			continue
		}
		if math.IsInf(r.ScheduledAt, 1) {
			continue
		}
		if r.ScheduledAt <= now+timeEps {
			*dst = append(*dst, r)
		}
	}
}

// depth returns the constraint-chain depth of a request (0 for roots),
// used to start parents before children within one instant.
func depth(r *request.Request) int {
	d := 0
	for p := r.RelatedTo; p != nil && d < 1024; p = p.RelatedTo {
		d++
	}
	return d
}
