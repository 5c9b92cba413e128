// Package rms implements the CooRMv2 Resource Management System process
// around the pure scheduler of internal/core: application sessions, the
// request()/done() operations (§3.1.3), view pushing, node-ID allocation,
// the re-scheduling interval coalescing of §3.2, and the protocol-violation
// kill of §3.1.4 ("if a protocol violation is detected, the RMS kills the
// application's processes and terminates the session").
//
// A Server is one scheduler shard of internal/federation, which owns the
// application and request ID spaces: sessions and requests are admitted
// under IDs the caller chose (ConnectID, RequestID, HoldID).
//
// The server is clock-agnostic: driven by clock.SimClock it is the paper's
// discrete-event simulator; driven by clock.RealClock behind a TCP
// transport it is the real-life prototype RMS.
package rms

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/metrics"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// AppHandler receives RMS→application notifications. Implementations must
// not block; they may call back into the Session (the server never holds
// its lock while notifying). Under either clock notifications arrive in the
// order the server queued them (see flush): per session a request's start
// before its finish, its finish before its reap, and no start twice. Within
// a round, sessions are notified in connection order (§3.2).
type AppHandler interface {
	// OnViews delivers fresh non-preemptive and preemptive views (§3.1.4).
	// Each push is a pair of segments, and a cluster a segment does not name
	// keeps the profile the handler last saw. The non-preemptive segment
	// names every cluster its pusher owns — a cluster with no availability
	// as stepfunc.Zero(), not left out. The preemptive one names the
	// clusters whose profile changed since the session's last push — one
	// that fell to nothing as stepfunc.Zero() — and every cluster its pusher
	// owns on the session's first push and on its first push after the
	// pusher's cluster set changed; it is nil when nothing changed there. A
	// single RMS owns all its clusters; a federation forwards each shard's
	// push as it is, and names the clusters a crashed shard or a migration
	// took away with zero profiles. Delivered views are immutable and may be
	// shared between sessions: handlers may retain them indefinitely but
	// must never modify them.
	OnViews(nonPreempt, preempt view.View)
	// OnStart notifies that a request started and delivers its node IDs
	// (empty for pre-allocations).
	OnStart(id request.ID, nodeIDs []int)
	// OnKill notifies that the RMS terminated the session.
	OnKill(reason string)
}

// RequestObserver is an optional AppHandler extension for routing layers
// (internal/federation). Handlers that implement it are additionally told
// when a request finishes (done() or duration expiry) and when finished
// requests are garbage-collected — i.e. can no longer be referenced by
// done() or a NEXT/COALLOC relation — so per-session routing tables can be
// pruned in lockstep with the server's own bookkeeping. Like every other
// handler callback, notifications are delivered without the server lock
// held, in AppHandler's order (a federation reaps a request it drops, which
// never ran, without a finish); within a session, requests in set order.
type RequestObserver interface {
	// OnRequestFinished reports that the request's allocation is over.
	// The request may still be referenced by a pending NEXT child.
	OnRequestFinished(id request.ID)
	// OnRequestsReaped reports that the requests were garbage-collected
	// and can no longer be referenced at all. IDs are in ascending order.
	OnRequestsReaped(ids []request.ID)
}

// RequestSpec is the application-provided part of a request (§A.1).
type RequestSpec struct {
	Cluster    view.ClusterID
	N          int
	Duration   float64 // seconds; math.Inf(1) for open-ended requests
	Type       request.Type
	RelatedHow request.Relation
	RelatedTo  request.ID // ignored when RelatedHow == Free
}

// Config parametrizes a Server.
type Config struct {
	// Clusters maps cluster IDs to node counts.
	Clusters map[view.ClusterID]int
	// ReschedInterval is the §3.2 re-scheduling interval: the scheduling
	// algorithm runs at most once per interval. The evaluation uses 1 s.
	// Under a real clock it is also the least idle time between the end of
	// one round's notification delivery and the next round (see runScheduled).
	ReschedInterval float64
	// Clock drives time; use clock.SimClock for simulations.
	Clock clock.Clock
	// Policy selects the preemptible division policy (default: filling).
	Policy core.PreemptPolicy
	// GracePeriod is how long an application may hold more preemptible
	// resources than granted before it is killed. Zero selects the default
	// of 5 re-scheduling intervals.
	GracePeriod float64
	// Clip optionally limits every application's non-preemptive view. It
	// stays with the server: DetachCluster/AttachCluster do not carry it.
	Clip view.View
	// Metrics, when non-nil, receives allocation updates.
	Metrics *metrics.Recorder
	// FullRecompute disables the scheduler's incremental recomputation, so
	// every round recomputes everything from scratch. The differential
	// tests pin the two modes byte-identical; production leaves it off.
	FullRecompute bool
	// NodeRecovery selects what happens to started non-preemptible requests
	// whose nodes die (FailNodes). The zero value is KillOnNodeFailure,
	// matching the shard-crash default (kill is the paper's §3.1.4
	// behaviour; requeue and cooperative are the reproduction's extensions).
	NodeRecovery NodeRecoveryPolicy
	// Obs, when non-nil, receives latency histograms and structured events
	// (internal/obs): round duration and per-round recomputed artifacts,
	// request admit→start waits, and done→reap lag. Recording stays out of
	// the allocation-lean round when nil.
	Obs *obs.Registry
	// ObsLabel prefixes this server's metric names and stamps its events
	// (e.g. "shard0") so federated shards share one registry without
	// colliding.
	ObsLabel string
	// Scheduling installs an application ordering/admission policy on the
	// scheduler (nil keeps the default connection-order FIFO, whose rounds
	// are byte-identical to the pre-policy scheduler). When the policy
	// also implements core.VictimNominator — internal/tenants' DRF does —
	// the server enforces quota preemption after every round: nominated
	// started preemptible allocations are terminated and their nodes
	// reclaimed for the starved queue.
	Scheduling core.SchedulingPolicy
}

// serverStats are the server's event counters, exported through Stats and
// the "rms" obs counter group. Guarded by Server.mu. Like the per-tenant
// preemption tally they survive Stop/Reset: a crash loses scheduler state,
// not the record of what happened to the machines.
type serverStats struct {
	migratedRequests int64 // requests adopted with a migrated cluster (AttachCluster)
	failedNodes      int64 // machines reported down (FailNodes)
	recoveredNodes   int64 // machines reported back (RecoverNodes)
	// Started requests hit by a node failure, by recovery action: terminated
	// (§3.1.4 applied per request), reset to pending for a full re-run, or
	// kept running on their surviving nodes (cooperative).
	nodeKilled   int64
	nodeRequeued int64
	nodeReduced  int64
	// poolViolations counts node-ID batches a pool refused on an internal
	// release path (mustFreeLocked): state corruption, degraded to leaked IDs.
	poolViolations int64
}

// Server is a CooRMv2 RMS instance.
type Server struct {
	mu    sync.Mutex
	cfg   Config
	sched *core.Scheduler
	clk   clock.Clock

	sessions map[int]*Session
	nextReq  request.ID // see nextSeqLocked

	pools map[view.ClusterID]*idPool

	// churn counts accepted request() operations per cluster — the per-cluster
	// load signal behind federation.Rebalancer donor selection. A cluster's
	// counter migrates with it (DetachCluster/AttachCluster) so deltas stay
	// meaningful across shards.
	churn map[view.ClusterID]int64

	stats serverStats

	schedPending bool
	schedTimer   clock.Timer
	wakeTimer    clock.Timer
	lastRunAt    float64 // −Inf until the first round
	// paced: a timer-driven round queued notifications that are not all
	// delivered yet; idleUntil is the earliest the next such round may start.
	paced     bool
	idleUntil float64

	// Notifications queued during a locked section and delivered unlocked by
	// one drainer at a time (flush), which owns the spare array; drained is
	// broadcast on mu when a delivery ends with the queue empty.
	pending  []notice
	spare    []notice
	draining bool
	drained  sync.Cond

	// The trim memo holds trims at the instant trimAt: trimmed, completed
	// views by view identity (View.Key, refreshLocked) and trimmed profiles
	// by profile identity (trimLocked) — sessions' views share profiles, and
	// TrimBefore is a pure function of a profile and the instant. It is
	// emptied when the instant changes and at the start of every push pass,
	// since a view's key may be recycled between rounds (a profile key holds
	// its profile).
	trimMemo  map[uintptr]view.View
	trimProfs map[*stepfunc.StepFunc]*stepfunc.StepFunc
	trimAt    float64

	// The preemptive segment of the session being pushed (pushViewsLocked):
	// notePLocked, bound once, collects the clusters segAll or a change of
	// value names into seg, and segChanged records a change. segMemo holds
	// this push pass's segments by their first profile, so sessions handed
	// equal segments share one map.
	noteP      func(view.ClusterID, *stepfunc.StepFunc, *stepfunc.StepFunc)
	seg        []segEntry
	segAll     bool
	segChanged bool
	segMemo    map[*stepfunc.StepFunc]view.View

	// stopped marks a crashed server (Stop): all state is gone and every
	// operation fails until Reset.
	stopped bool

	// Observability (nil when Config.Obs is nil). Histogram pointers are
	// cached at construction so hot paths record through one nil check and
	// zero map lookups; obsPrevRecomputed turns the scheduler's cumulative
	// artifact counter into a per-round dirty count.
	obs               *obs.Registry
	obsLabel          string
	obsPrefix         string
	hRound            *obs.Histogram
	hDirty            *obs.Histogram
	hWait             *obs.Histogram
	hReap             *obs.Histogram
	obsPrevRecomputed int64

	// hTenantWait lazily holds per-tenant admit→start wait histograms
	// ("<prefix>tenant.<label>.wait_seconds"), populated only when a
	// scheduling policy is configured — the default FIFO path never
	// touches the map.
	hTenantWait map[string]*obs.Histogram

	// Quota preemption (Config.Scheduling implementing
	// core.VictimNominator): the cached nominator, the reusable victim
	// buffer, and the cumulative revocation count per tenant label.
	victims        core.VictimNominator
	victimBuf      []*request.Request
	tenantPreempts map[string]int64

	// gcCollect is reapLocked bound once at construction, with its
	// per-call inputs and outputs (gcNow/gcObserve/gcReaped/gcFreed
	// scratch): a fresh method value or closure per session per round would
	// show up in the steady cached round's allocation budget.
	gcCollect func(*request.Request)
	gcNow     float64
	gcObserve bool
	gcReaped  []request.ID
	gcFreed   bool
}

// NewServer creates an RMS server. It panics on an invalid configuration.
func NewServer(cfg Config) *Server {
	if cfg.Clock == nil {
		panic("rms: Config.Clock is required")
	}
	if len(cfg.Clusters) == 0 {
		panic("rms: at least one cluster is required")
	}
	if cfg.ReschedInterval <= 0 {
		cfg.ReschedInterval = 1
	}
	if cfg.GracePeriod <= 0 {
		cfg.GracePeriod = 5 * cfg.ReschedInterval
	}
	s := &Server{cfg: cfg, clk: cfg.Clock, tenantPreempts: make(map[string]int64)}
	s.drained.L = &s.mu
	// The pools are the cluster set from here on: attach and detach change
	// them, and the caller's map is never read or written again.
	s.pools = make(map[view.ClusterID]*idPool, len(cfg.Clusters))
	for cid, n := range cfg.Clusters {
		s.pools[cid] = newIDPool(n)
	}
	s.cfg.Clusters = nil
	s.gcCollect = s.reapLocked
	s.noteP = s.notePLocked
	s.initObs()
	s.initStateLocked()
	return s
}

// initObs caches the server's observability hooks. Histogram names carry
// the shard label so a federation's shards share one registry; the sched
// counter source reads SchedStats under the server lock (snapshots are
// never taken while holding it).
func (s *Server) initObs() {
	if s.cfg.Obs == nil {
		return
	}
	s.obs = s.cfg.Obs
	s.obsLabel = s.cfg.ObsLabel
	prefix := ""
	if s.obsLabel != "" {
		prefix = s.obsLabel + "."
	}
	s.obsPrefix = prefix
	s.hRound = s.obs.Hist(prefix + "rms.round_seconds")
	s.hDirty = s.obs.Hist(prefix + "rms.round_dirty_artifacts")
	s.hWait = s.obs.Hist(prefix + "rms.wait_seconds")
	s.hReap = s.obs.Hist(prefix + "rms.reap_lag_seconds")
	s.obs.RegisterCounters(prefix+"sched", func() map[string]int64 {
		return s.SchedStats().Map()
	})
	s.obs.RegisterCounters(prefix+"rms", s.Stats)
	if s.cfg.Scheduling != nil {
		s.obs.RegisterCounters(prefix+"tenants", func() map[string]int64 {
			snap := s.TenantPreempts()
			out := make(map[string]int64, len(snap))
			for label, n := range snap {
				out["preempted."+label] = n
			}
			return out
		})
	}
}

// tenantWaitHistLocked returns (creating on first use) the per-tenant
// admit→start wait histogram for a tenant label. Callers guarantee
// s.obs != nil.
func (s *Server) tenantWaitHistLocked(key string) *obs.Histogram {
	h := s.hTenantWait[key]
	if h == nil {
		if s.hTenantWait == nil {
			s.hTenantWait = make(map[string]*obs.Histogram)
		}
		h = s.obs.Hist(s.obsPrefix + "tenant." + key + ".wait_seconds")
		s.hTenantWait[key] = h
	}
	return h
}

// initStateLocked (re)builds the server's mutable scheduling state from its
// pools: empty session tables, node-ID pools of the same clusters and sizes
// with nothing held and the same machines down, a fresh scheduler planning
// against the working nodes, and restarted ID sequences. Shared by NewServer
// and Reset so a restarted shard cannot silently diverge from a freshly
// constructed one.
func (s *Server) initStateLocked() {
	old := s.pools
	s.pools = make(map[view.ClusterID]*idPool, len(old))
	working := make(map[view.ClusterID]int, len(old))
	for cid, prev := range old {
		pool := newIDPool(prev.size)
		for _, id := range prev.failed {
			pool.fail(id)
		}
		s.pools[cid] = pool
		working[cid] = pool.capacity()
	}
	s.sched = core.NewScheduler(working)
	s.sched.SetIncremental(!s.cfg.FullRecompute)
	s.sched.SetPolicy(s.cfg.Policy)
	if s.cfg.Clip != nil {
		s.sched.SetClip(s.cfg.Clip)
	}
	if s.cfg.Scheduling != nil {
		s.sched.SetSchedulingPolicy(s.cfg.Scheduling)
	}
	s.victims, _ = s.cfg.Scheduling.(core.VictimNominator)
	s.sessions = make(map[int]*Session)
	s.churn = make(map[view.ClusterID]int64, len(s.pools))
	s.nextReq = 1
	s.lastRunAt = math.Inf(-1)
	s.idleUntil = math.Inf(-1)
	s.obsPrevRecomputed = 0 // fresh scheduler: cumulative counters restart
}

// Session is one application's connection to the RMS.
type Session struct {
	s      *Server
	app    *core.AppState
	h      AppHandler
	killed bool

	// np is the non-preemptive half of the last push; the scheduler keeps
	// the preemptive half (core.AppState.ViewsSince). pAll: the next push
	// names every cluster in its preemptive segment — the first push, and
	// the first after the server's cluster set changed.
	np   pushed
	pAll bool
	// inDeficit/deficitSince: whether, and since when, the application holds
	// more preemptible nodes than granted (kill after GracePeriod).
	inDeficit    bool
	deficitSince float64
}

// AppID returns the RMS-assigned application ID.
func (sess *Session) AppID() int { return sess.app.ID }

// ConnectID registers an application under a caller-chosen ID and returns
// its session; the first view push happens on the next scheduling round.
// The caller owns the ID space: internal/federation assigns globally unique
// application IDs and every shard registers the session under the same ID
// (so per-shard metrics aggregate by ID). It errors if the ID is
// non-positive or already connected, or if the server is stopped
// (ErrStopped). Options tag the session — WithTenant assigns it a tenant
// queue.
func (s *Server) ConnectID(h AppHandler, id int, opts ...ConnectOption) (*Session, error) {
	if id <= 0 {
		return nil, fmt.Errorf("rms: application ID %d must be positive", id)
	}
	var o connectOpts
	for _, opt := range opts {
		opt(&o)
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, ErrStopped
	}
	if _, taken := s.sessions[id]; taken {
		s.mu.Unlock()
		return nil, fmt.Errorf("rms: application ID %d already connected", id)
	}
	sess := s.connectLocked(h, id, o)
	s.mu.Unlock()
	s.flush()
	return sess, nil
}

// connectLocked registers a session under id.
func (s *Server) connectLocked(h AppHandler, id int, o connectOpts) *Session {
	app := s.sched.AddApp(id, s.clk.Now())
	app.Tenant = o.tenant
	sess := &Session{s: s, app: app, h: h, pAll: true}
	s.sessions[id] = sess
	s.requestRunLocked()
	return sess
}

// Scheduler exposes the underlying scheduler for inspection (tests,
// experiment harness). Mutating it directly is not supported.
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// SchedStats returns the scheduler's cumulative incremental-recomputation
// counters (cache hits and misses per artifact kind).
func (s *Server) SchedStats() core.SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Stats()
}

// Stats returns the server's cumulative event counters. churn_requests sums
// the per-cluster churn the rebalancer reads (so it follows clusters through
// migration and restarts with the scheduler state); preempted_requests sums
// the per-tenant quota revocations.
func (s *Server) Stats() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var churn, preempted int64
	for _, n := range s.churn {
		churn += n
	}
	for _, n := range s.tenantPreempts {
		preempted += n
	}
	return map[string]int64{
		"churn_requests":         churn,
		"migrated_requests":      s.stats.migratedRequests,
		"failed_nodes":           s.stats.failedNodes,
		"recovered_nodes":        s.stats.recoveredNodes,
		"node_killed_requests":   s.stats.nodeKilled,
		"node_requeued_requests": s.stats.nodeRequeued,
		"node_reduced_requests":  s.stats.nodeReduced,
		"preempted_requests":     preempted,
		"pool_violations":        s.stats.poolViolations,
	}
}

// touchLocked records a request-state mutation of one application: the
// scheduler recomputes the app's cached artifacts next round. Every RMS
// mutation path funnels through this (missing a mark would make cached
// rounds stale — the incremental≡full differential tests guard it).
func (s *Server) touchLocked(appID int) {
	s.sched.MarkAppDirty(appID)
}

// Stop simulates a crash: the scheduler-side state of every session is
// dropped without notification (the process died — there are no goodbye
// messages; a routing layer such as internal/federation decides what the
// applications are told), pending timers and notifications are cancelled, a
// delivery in progress is waited out (so not from a handler: no notification
// reaches a handler once Stop returns), and every subsequent operation fails
// until Reset, except the node-fault
// calls (FailNodes, RecoverNodes, FailedNodeIDs): the machines outlive the
// process. Metrics integrals are closed out at the crash instant so no
// allocation keeps accruing area for a dead shard. Stop is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	now := s.clk.Now()
	for _, a := range s.sched.Apps() {
		sess := s.sessions[a.ID]
		sess.killed = true
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.SetAlloc(a.ID, now, 0)
			s.cfg.Metrics.SetPreAlloc(a.ID, now, 0)
		}
	}
	// The scheduler keeps the dead sessions' applications until Reset
	// replaces it; every path that walks them refuses a stopped server.
	s.sessions = make(map[int]*Session)
	if s.schedTimer != nil {
		s.schedTimer.Stop()
		s.schedTimer = nil
	}
	if s.wakeTimer != nil {
		s.wakeTimer.Stop()
		s.wakeTimer = nil
	}
	s.schedPending = false
	s.paced = false
	s.pending = nil
	s.awaitDeliveryLocked()
	s.mu.Unlock()
}

// Stopped reports whether the server is stopped (crashed and not yet Reset).
func (s *Server) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// Reset restarts a stopped server with empty scheduling state — a fresh
// scheduler, no sessions, node-ID pools with nothing held, and restarted ID
// sequences — modelling a shard process that rejoins after a crash with no
// recollection of its previous life. The machines are another matter: a node
// down at Reset (failed before the crash or while stopped) stays down, and
// the fresh scheduler plans against the working nodes only. The clusters are
// the pools' (a cluster attached or detached since construction stays so),
// and the configuration (policy, clip, metrics recorder) is retained. Reset
// panics if the server is still running.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		panic("rms: Reset on a running server")
	}
	s.stopped = false
	s.initStateLocked()
}

// SessionIDs returns the connected application IDs in ascending order.
func (s *Server) SessionIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.sessions))
}

// CheckInvariants verifies the server's internal accounting: every held
// node ID belongs to exactly one request, pools neither leak nor double-book
// IDs, and the metrics recorder's current allocation agrees with the node
// IDs the requests hold (the double-counted-area guard). A stopped server
// must hold nothing. It is the per-shard half of the chaos harness's
// post-run invariant checker. It first waits until every queued notification
// is delivered, so it must not be called from inside a handler.
func (s *Server) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitDeliveryLocked()
	if s.stopped {
		if len(s.sessions) != 0 {
			return fmt.Errorf("rms: stopped server still has %d sessions", len(s.sessions))
		}
		if s.cfg.Metrics != nil {
			for _, id := range s.cfg.Metrics.Apps() {
				if n := s.cfg.Metrics.Current(id); n != 0 {
					return fmt.Errorf("rms: stopped server still accrues %d nodes for app %d", n, id)
				}
			}
		}
		return nil
	}
	held := make(map[view.ClusterID]map[int]request.ID, len(s.pools))
	for _, a := range s.sched.Apps() {
		id, sess := a.ID, s.sessions[a.ID]
		total := 0
		for _, r := range sess.app.Requests() {
			if r.Held {
				// A hold reserves schedule capacity only: it must never have
				// started, finished, or acquired node IDs — commit (clearing
				// Held) is the only path into the start machinery.
				if r.Started() {
					return fmt.Errorf("rms: held request %d has started", r.ID)
				}
				if r.Finished {
					return fmt.Errorf("rms: held request %d is finished", r.ID)
				}
				if len(r.NodeIDs) > 0 {
					return fmt.Errorf("rms: held request %d holds %d node IDs", r.ID, len(r.NodeIDs))
				}
			}
			for _, nid := range r.NodeIDs {
				pool := s.pools[r.Cluster]
				if pool == nil {
					return fmt.Errorf("rms: request %d holds nodes on unknown cluster %q", r.ID, r.Cluster)
				}
				if nid < 0 || nid >= pool.size {
					return fmt.Errorf("rms: request %d holds out-of-range node %d on %q", r.ID, nid, r.Cluster)
				}
				if pool.isFailed(nid) {
					return fmt.Errorf("rms: request %d holds dead node %d on %q", r.ID, nid, r.Cluster)
				}
				m := held[r.Cluster]
				if m == nil {
					m = make(map[int]request.ID)
					held[r.Cluster] = m
				}
				if other, dup := m[nid]; dup {
					return fmt.Errorf("rms: node %d on %q held by requests %d and %d", nid, r.Cluster, other, r.ID)
				}
				m[nid] = r.ID
				total++
			}
		}
		if s.cfg.Metrics != nil {
			if n := s.cfg.Metrics.Current(id); n != total {
				return fmt.Errorf("rms: app %d metrics report %d current nodes, holds %d", id, n, total)
			}
		}
	}
	for cid, pool := range s.pools {
		for _, nid := range pool.freeIDs {
			if _, both := held[cid][nid]; both {
				return fmt.Errorf("rms: node %d on %q is both free and held", nid, cid)
			}
			if pool.isFailed(nid) {
				return fmt.Errorf("rms: node %d on %q is both free and down", nid, cid)
			}
		}
		if pool.available()+len(held[cid])+len(pool.failed) != pool.size {
			return fmt.Errorf("rms: cluster %q leaks node IDs: %d free + %d held + %d down != %d",
				cid, pool.available(), len(held[cid]), len(pool.failed), pool.size)
		}
		if cap := s.sched.Capacity(cid); cap != pool.capacity() {
			return fmt.Errorf("rms: cluster %q scheduler capacity %d != %d working nodes",
				cid, cap, pool.capacity())
		}
	}
	return nil
}

// Now returns the server's current time.
func (s *Server) Now() float64 { return s.clk.Now() }

// RequestID implements the request() operation (§3.1.3) under a
// caller-chosen ID: it adds a new request to the system. It is the
// request-side twin of ConnectID, for the layer that owns the ID space
// (internal/federation admits a request on its shard under the federated ID,
// so every notification, error and obs event quotes the ID the application
// holds).
// It errors if the ID is non-positive or already names one of the session's
// requests. On success observe (when non-nil) runs while the server lock is
// still held. Scheduling rounds also run under that lock, so bookkeeping
// done inside observe — the federation registering where the request lives —
// is in place before the request can start (OnStart) or be referenced by a
// later round. observe must not call back into the server.
func (sess *Session) RequestID(spec RequestSpec, id request.ID, observe func()) error {
	if id <= 0 {
		return fmt.Errorf("rms: request ID %d must be positive", id)
	}
	return sess.admit(spec, id, false, 0, observe)
}

// nextSeqLocked draws the next admission sequence number (request.Request.Seq)
// for a request admitted under id, kept ahead of every admitted ID.
func (s *Server) nextSeqLocked(id request.ID) request.ID {
	seq := s.nextReq
	s.nextReq = max(seq, id) + 1
	return seq
}

// admit is the one admission path; RequestID and HoldID are its callers,
// and both refuse a non-positive id first. held admits a two-phase hold
// floored at notBefore (hold.go).
func (sess *Session) admit(spec RequestSpec, id request.ID, held bool, notBefore float64, observe func()) error {
	s := sess.s
	s.mu.Lock()
	if sess.killed {
		s.mu.Unlock()
		return fmt.Errorf("rms: session was terminated")
	}
	if sess.findRequestLocked(id) != nil {
		s.mu.Unlock()
		return errRequest(id, ReasonInUse)
	}
	var parent *request.Request
	if spec.RelatedHow != request.Free {
		if notBefore > 0 {
			s.mu.Unlock()
			return errRequest(id, reasonRelatedFloor)
		}
		parent = sess.findRequestLocked(spec.RelatedTo)
		if parent == nil {
			s.mu.Unlock()
			return errRelated(spec.RelatedTo, ReasonNotFound)
		}
	}
	if _, ok := s.pools[spec.Cluster]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownCluster, spec.Cluster)
	}
	seq := s.nextSeqLocked(id)
	r := request.New(id, sess.app.ID, spec.Cluster, spec.N, spec.Duration, spec.Type, spec.RelatedHow, parent)
	if err := r.Validate(); err != nil {
		s.mu.Unlock()
		return err
	}
	r.Seq = int64(seq)
	r.SubmittedAt = s.clk.Now()
	r.Held = held
	if notBefore > 0 { // false for NaN
		r.NotBefore = notBefore
	}
	sess.app.SetFor(spec.Type).Add(r)
	s.touchLocked(sess.app.ID)
	s.churn[spec.Cluster]++
	if observe != nil {
		observe()
	}
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// Done implements the done() operation (§3.1.3): it immediately terminates
// a request. For started requests the duration is set to now − start-time.
// released lists the node IDs the application gives back; for a request
// followed by a NEXT child the remaining IDs are kept for the child
// (§3.1.2). For a request with no NEXT successor all IDs are returned and
// released may be nil.
func (sess *Session) Done(id request.ID, released []int) error {
	s := sess.s
	s.mu.Lock()
	if sess.killed {
		s.mu.Unlock()
		return fmt.Errorf("rms: session was terminated")
	}
	r := sess.findRequestLocked(id)
	if r == nil {
		s.mu.Unlock()
		return errRequest(id, ReasonNotFound)
	}
	if r.Finished {
		s.mu.Unlock()
		return errRequest(id, "already finished")
	}
	if !r.Started() {
		// A pending request is simply withdrawn: it is gone from the sets at
		// once, so it is reported as both finished and reaped.
		sess.app.SetFor(r.Type).Remove(r)
		s.touchLocked(sess.app.ID)
		s.notifyFinishedLocked(sess, r.ID)
		s.notifyReapedLocked(sess, []request.ID{r.ID})
		s.requestRunLocked()
		s.mu.Unlock()
		s.flush()
		return nil
	}
	now := s.clk.Now()
	if err := sess.finishLocked(r, now, released); err != nil {
		s.mu.Unlock()
		return err
	}
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// Disconnect ends the session cleanly, releasing every resource.
func (sess *Session) Disconnect() {
	s := sess.s
	s.mu.Lock()
	if !sess.killed {
		s.teardownLocked(sess)
	}
	s.mu.Unlock()
	s.flush()
}

// RequestIDs returns the IDs of every request the server holds for the
// session — pending, running, or finished and not yet reaped — in set order.
// A routing layer checks its own table against it (CheckInvariants).
func (sess *Session) RequestIDs() []request.ID {
	sess.s.mu.Lock()
	defer sess.s.mu.Unlock()
	if sess.killed {
		return nil
	}
	reqs := sess.app.Requests()
	ids := make([]request.ID, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	return ids
}

// findRequestLocked looks a request up across the application's three sets.
func (sess *Session) findRequestLocked(id request.ID) *request.Request {
	for _, set := range []*request.Set{sess.app.PA, sess.app.NP, sess.app.P} {
		if r := set.ByID(id); r != nil {
			return r
		}
	}
	return nil
}

// hasPendingNextChildLocked reports whether some unstarted request is NEXT-
// chained to r and could take its node IDs over (they must then be preserved
// for the hand-over). Only a same-cluster child that holds nodes counts:
// node IDs are cluster-scoped, so a cross-cluster NEXT child draws fresh IDs
// from its own pool, and a pre-allocation holds none. IDs parked for a child
// that never takes them go back to the pool when r is reaped
// (gcRequestsLocked).
func (sess *Session) hasPendingNextChildLocked(r *request.Request) bool {
	for _, q := range sess.app.Requests() {
		if q.RelatedTo == r && q.RelatedHow == request.Next && q.Cluster == r.Cluster &&
			q.Type != request.PreAlloc && !q.Started() && !q.Finished {
			return true
		}
	}
	return false
}

// finishLocked terminates a started request at time now, handling node-ID
// release / hand-over.
func (sess *Session) finishLocked(r *request.Request, now float64, released []int) error {
	s := sess.s
	if now < r.StartedAt {
		now = r.StartedAt
	}

	// Which of the held IDs go back to the pool? Validated before any
	// mutation: a rejected done() must leave the request untouched and
	// retryable, not half-finished with node IDs that can never be freed.
	keepForChild := false
	if r.Type != request.PreAlloc {
		keepForChild = sess.hasPendingNextChildLocked(r)
		if !keepForChild {
			released = r.NodeIDs
		} else {
			for _, id := range released {
				if !slices.Contains(r.NodeIDs, id) {
					return errNode(r.ID, id)
				}
			}
		}
	}

	// Return the released IDs to the pool before mutating the request: the
	// pool validates the whole batch atomically, so a corrupt release (a
	// double free, an out-of-range or dead node — possible only through RMS
	// state corruption or a buggy application under node churn) is rejected
	// as a structured error and the request stays untouched and retryable.
	if r.Type != request.PreAlloc && len(released) > 0 {
		if err := s.pools[r.Cluster].free(released); err != nil {
			pe := err.(*poolError)
			return &RequestError{ID: r.ID, Node: pe.node, Reason: pe.reason}
		}
	}

	r.Duration = now - r.StartedAt
	if r.Duration == 0 {
		// Keep a zero-length allocation representable; it occupies nothing.
		r.Duration = 1e-9
	}
	r.Finished = true
	s.touchLocked(sess.app.ID)

	if r.Type == request.PreAlloc {
		s.notifyFinishedLocked(sess, r.ID)
		return nil // pre-allocations hold no node IDs
	}

	if len(released) > 0 {
		r.NodeIDs = slices.DeleteFunc(r.NodeIDs, func(id int) bool { return slices.Contains(released, id) })
		s.recordAllocLocked(sess, now)
	}
	s.notifyFinishedLocked(sess, r.ID)
	return nil
}

// notifyFinishedLocked queues an OnRequestFinished notification for handlers
// implementing the RequestObserver extension.
func (s *Server) notifyFinishedLocked(sess *Session, id request.ID) {
	if ro, ok := sess.h.(RequestObserver); ok {
		s.notifyLocked(func() { ro.OnRequestFinished(id) })
	}
}

// notifyReapedLocked queues an OnRequestsReaped notification for handlers
// implementing the RequestObserver extension. ids must be sorted ascending.
func (s *Server) notifyReapedLocked(sess *Session, ids []request.ID) {
	if len(ids) == 0 {
		return
	}
	if ro, ok := sess.h.(RequestObserver); ok {
		s.notifyLocked(func() { ro.OnRequestsReaped(ids) })
	}
}

// teardownLocked releases everything an application holds and removes it.
func (s *Server) teardownLocked(sess *Session) {
	now := s.clk.Now()
	for _, r := range sess.app.Requests() {
		if len(r.NodeIDs) > 0 {
			s.mustFreeLocked(r.Cluster, r.NodeIDs)
			r.NodeIDs = nil
		}
		r.Finished = true
	}
	s.recordAllocLocked(sess, now)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.SetPreAlloc(sess.app.ID, now, 0)
	}
	sess.killed = true
	s.sched.RemoveApp(sess.app.ID)
	delete(s.sessions, sess.app.ID)
	s.requestRunLocked()
}

// killLocked terminates a misbehaving application (§3.1.4) and queues the
// OnKill notification.
func (s *Server) killLocked(sess *Session, reason string) {
	h := sess.h
	s.teardownLocked(sess)
	s.notifyLocked(func() { h.OnKill(reason) })
}

// requestRunLocked schedules a scheduling round, coalescing triggers so the
// algorithm runs at most once per re-scheduling interval (§3.2).
func (s *Server) requestRunLocked() {
	if s.schedPending {
		return
	}
	now := s.clk.Now()
	delay := 0.0
	if next := s.lastRunAt + s.cfg.ReschedInterval; next > now {
		delay = next - now
	}
	s.schedPending = true
	s.schedTimer = s.clk.AfterFunc(delay, "rms.schedule", s.runScheduled)
}

// ScheduleNow forces a synchronous scheduling round at the current time,
// bypassing the re-scheduling interval. It exists for tests and external
// drivers that step rounds directly instead of waiting on clock timers;
// production code relies on the coalesced timer instead. It is a no-op on a
// stopped server.
func (s *Server) ScheduleNow() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.runLocked()
	s.mu.Unlock()
	s.flush()
}

// runScheduled is the timer callback for a scheduling round. Stop cancels
// the timers, but under a real clock a firing callback can race the crash;
// the stopped guard makes that race a no-op.
//
// Under a real clock a round and the delivery of its notifications take
// time, possibly more than the interval. A round therefore never overlaps
// the delivery of the previous round's notifications (paced) and starts only
// after the server has then been idle for one interval, so every call that
// arrives during a round or the idle interval after it shares the next round.
// Without the rule the number of rounds — and of view pushes — one
// request()/done() pair costs depends on how far the previous delivery had
// got when each call arrived, that is on the machine's speed. A timer that
// fires too early re-arms itself. Inside the simulator rounds take no time,
// the timer requestRunLocked armed is never early, and nothing changes.
func (s *Server) runScheduled() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	wait := s.idleUntil - s.clk.Now()
	if s.paced {
		wait = s.cfg.ReschedInterval
	}
	if wait > 1e-9 {
		s.schedTimer = s.clk.AfterFunc(wait, "rms.schedule", s.runScheduled)
		s.mu.Unlock()
		return
	}
	s.schedPending = false
	s.paced = true
	s.runLocked()
	s.mu.Unlock()
	s.flush()
}

// flush delivers queued notifications without holding the lock, so handlers
// can synchronously call back into the server (the simulated applications
// do exactly that). The goroutine that finds no delivery in progress drains
// the queue in order until it is empty, and starts the idle interval if a
// timer-driven round queued; every other caller, a handler calling back in
// included, leaves its notices to it, so none overtakes an older one.
func (s *Server) flush() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for len(s.pending) > 0 {
		batch := s.pending
		s.pending, s.spare = s.spare, nil // calls back in queue on the spare
		s.mu.Unlock()
		for i := range batch {
			if n := &batch[i]; n.fn != nil {
				n.fn()
			} else {
				n.h.OnViews(n.np, n.p)
			}
		}
		clear(batch) // pin nothing
		s.mu.Lock()
		s.spare = batch[:0]
	}
	if s.paced {
		s.paced = false
		s.idleUntil = s.clk.Now() + s.cfg.ReschedInterval
	}
	s.draining = false
	s.drained.Broadcast()
	s.mu.Unlock()
}

// awaitDeliveryLocked is the delivery fence: it waits, releasing s.mu
// meanwhile, until nothing is queued or being delivered. Under
// clock.SimClock every delivery ends within the event that queued it, so it
// never waits; called from inside a handler it would wait for itself.
func (s *Server) awaitDeliveryLocked() {
	for s.draining || len(s.pending) > 0 {
		s.drained.Wait()
	}
}

// notice is one queued notification: a view push, by far the most frequent
// kind, is {h, np, p}; every other kind is fn.
type notice struct {
	h     AppHandler
	np, p view.View
	fn    func()
}

// notifyLocked queues a notification other than a view push.
func (s *Server) notifyLocked(fn func()) {
	s.pending = append(s.pending, notice{fn: fn})
}

// recordStartLocked records a request's admit→start wait — sim-time
// inside the simulator (deterministic and meaningful), wall-time under
// clock.RealClock. Requests admitted before the observability layer
// existed (no submit stamp, e.g. attached from an old snapshot) are
// skipped.
func (s *Server) recordStartLocked(r *request.Request, now float64) {
	if s.hWait == nil || math.IsNaN(r.SubmittedAt) {
		return
	}
	wait := now - r.SubmittedAt
	if wait < 0 {
		wait = 0
	}
	s.hWait.Record(wait)
	if s.cfg.Scheduling != nil {
		if sess := s.sessions[r.AppID]; sess != nil {
			s.tenantWaitHistLocked(tenantKey(sess.app.Tenant)).Record(wait)
		}
	}
	s.obs.Event(obs.Event{Time: now, Type: obs.EvStart, Shard: s.obsLabel,
		App: r.AppID, Cluster: string(r.Cluster), Request: int(r.ID), Value: wait})
}

// recordAllocLocked pushes the number of node IDs the session's requests
// hold to the metrics recorder. now must be the time captured at the start
// of the current locked section: re-reading the wall clock mid-section would
// go backwards relative to later bookkeeping that still uses the section's
// time.
func (s *Server) recordAllocLocked(sess *Session, now float64) {
	if s.cfg.Metrics == nil {
		return
	}
	held := 0
	for _, set := range [...]*request.Set{sess.app.PA, sess.app.NP, sess.app.P} {
		for _, r := range set.All() {
			held += len(r.NodeIDs)
		}
	}
	s.cfg.Metrics.SetAlloc(sess.app.ID, now, held)
}

// runLocked executes one scheduling round: sweep expired allocations, run
// the core algorithm, start requests, push views, and enforce preemption.
func (s *Server) runLocked() {
	now := s.clk.Now()
	s.lastRunAt = now

	s.sweepExpiredLocked(now)

	s.startRequestsLocked(s.sched.Schedule(now), now)

	// Quota preemption: revoke the policy's victims before recomputing
	// views, so the freed capacity is visible this round; the follow-up
	// round fits the relieved demand into it.
	if s.enforceQuotaLocked(now) {
		s.requestRunLocked()
	}

	// Starting requests changes availability; recompute views so
	// applications always see post-start state.
	s.sched.Schedule(now)
	s.pushViewsLocked()
	deadline := s.enforcePreemptionLocked(now)
	s.recordPreAllocLocked(now)
	s.armWakeLocked(now, deadline)
	s.gcRequestsLocked(now)

	if s.obs != nil {
		st := s.sched.Stats()
		dirty := st.ArtifactsRecomputed - s.obsPrevRecomputed
		s.obsPrevRecomputed = st.ArtifactsRecomputed
		// Clock-measured duration: real seconds under clock.RealClock,
		// exactly zero inside the simulator (time only advances between
		// events), which keeps same-seed snapshots byte-identical.
		dur := s.clk.Now() - now
		s.hRound.Record(dur)
		s.hDirty.Record(float64(dirty))
		s.obs.Event(obs.Event{Time: now, Type: obs.EvRound, Shard: s.obsLabel, Value: dur})
	}
}

// gcRequestsLocked garbage-collects finished, unreferenced requests from
// every session's sets and tells RequestObserver handlers which IDs were
// reaped. Sessions are walked in connection order (the scheduler's), so the
// notification order is deterministic.
func (s *Server) gcRequestsLocked(now float64) {
	for _, app := range s.sched.Apps() {
		before := app.PA.Len() + app.NP.Len() + app.P.Len()
		if before == 0 {
			continue
		}
		id, sess := app.ID, s.sessions[app.ID]
		ro, observes := sess.h.(RequestObserver)
		s.gcNow = now
		s.gcObserve = observes
		s.gcReaped = s.gcReaped[:0]
		s.gcFreed = false
		app.PA.GC(now, s.gcCollect)
		app.NP.GC(now, s.gcCollect)
		app.P.GC(now, s.gcCollect)
		if app.PA.Len()+app.NP.Len()+app.P.Len() != before {
			s.touchLocked(id)
		}
		if s.gcFreed { // read the sets once GC has compacted them
			s.recordAllocLocked(sess, now)
		}
		if observes && len(s.gcReaped) > 0 {
			reaped := append([]request.ID(nil), s.gcReaped...)
			sort.Slice(reaped, func(i, j int) bool { return reaped[i] < reaped[j] })
			s.notifyLocked(func() { ro.OnRequestsReaped(reaped) })
		}
	}
}

// reapLocked is gcRequestsLocked's per-request callback: r was just removed
// from its set.
func (s *Server) reapLocked(r *request.Request) {
	if len(r.NodeIDs) > 0 {
		// Parked for a NEXT hand-over that never happened: the child sits in
		// another request set (so it does not keep r alive), or was withdrawn
		// or killed first.
		s.mustFreeLocked(r.Cluster, r.NodeIDs)
		r.NodeIDs = nil
		s.gcFreed = true
	}
	if s.gcObserve {
		s.gcReaped = append(s.gcReaped, r.ID)
	}
	if s.hReap != nil {
		lag := s.gcNow - r.End()
		if lag < 0 || math.IsNaN(lag) {
			lag = 0 // withdrawn-but-referenced requests have no end time
		}
		s.hReap.Record(lag)
		s.obs.Event(obs.Event{Time: s.gcNow, Type: obs.EvReap, Shard: s.obsLabel,
			App: r.AppID, Cluster: string(r.Cluster), Request: int(r.ID), Value: lag})
	}
}

// sweepExpiredLocked finishes started requests whose duration elapsed.
// Applications normally call done() themselves; expiry is the contract's
// backstop. Surplus IDs not handed to a NEXT child are returned to the pool
// (for a shrinking NEXT update the application should have called done()
// with its chosen IDs; if it did not, the RMS picks).
func (s *Server) sweepExpiredLocked(now float64) {
	for _, app := range s.sched.Apps() {
		if app.PA.Len() == 0 && app.NP.Len() == 0 && app.P.Len() == 0 {
			continue // request-less federated session: nothing to sweep
		}
		id, sess := app.ID, s.sessions[app.ID]
		for _, set := range [...]*request.Set{app.PA, app.NP, app.P} {
			for _, r := range set.All() {
				if !r.Started() || r.Finished || r.End() > now+1e-9 {
					continue
				}
				r.Finished = true
				s.touchLocked(id)
				s.notifyFinishedLocked(sess, r.ID)
				if r.Type == request.PreAlloc {
					continue
				}
				if sess.hasPendingNextChildLocked(r) {
					continue // IDs stay parked on r for hand-over
				}
				if len(r.NodeIDs) > 0 {
					s.mustFreeLocked(r.Cluster, r.NodeIDs)
					r.NodeIDs = nil
					s.recordAllocLocked(sess, now)
				}
			}
		}
	}
}

// startRequestsLocked processes a round's start list in order, allocating
// node IDs. A request whose IDs are not yet free is deferred:
// it stays unstarted and is reconsidered when resources are released
// (§A.5, situation 2).
func (s *Server) startRequestsLocked(toStart []*request.Request, now float64) {
	for _, r := range toStart {
		sess := s.sessions[r.AppID]
		if sess == nil {
			continue
		}
		switch r.Type {
		case request.PreAlloc:
			r.StartedAt = now
			s.touchLocked(r.AppID)
			s.recordStartLocked(r, now)
			h := sess.h
			id := r.ID
			s.notifyLocked(func() { h.OnStart(id, nil) })

		default:
			// Inherit IDs from a finished NEXT parent. Only a same-cluster
			// parent can hand IDs over: node IDs are cluster-scoped, so a
			// cross-cluster NEXT must draw fresh IDs from its own pool.
			// donor is that parent; from here on its list is whatever r has
			// not yet taken or returned.
			var donor *request.Request
			var inherited []int
			if p := r.RelatedTo; r.RelatedHow == request.Next && p != nil &&
				p.Cluster == r.Cluster && p.Ended(now) && len(p.NodeIDs) > 0 {
				donor, inherited = p, p.NodeIDs
			}
			want := r.NAlloc
			pool := s.pools[r.Cluster]
			if len(inherited) > want {
				// A shrinking NEXT hand-over where the application did not
				// name the IDs to drop (e.g. the bridge request of an
				// announced update simply expired): the RMS picks the
				// surplus and returns it to the pool.
				surplus := inherited[want:]
				inherited = inherited[:want]
				s.mustFreeLocked(r.Cluster, surplus)
				donor.NodeIDs = inherited
			}
			need := want - len(inherited)
			if pool.available() < need {
				// Defer: preempted resources have not been released yet.
				// The donor keeps its trimmed ID list for the retry.
				s.touchLocked(r.AppID)
				s.recordAllocLocked(sess, now)
				continue
			}
			ids := append(append([]int(nil), inherited...), pool.alloc(need)...)
			if donor != nil {
				donor.NodeIDs = nil
			}
			r.NodeIDs = ids
			r.StartedAt = now
			s.touchLocked(r.AppID)
			s.recordStartLocked(r, now)
			s.recordAllocLocked(sess, now)
			h := sess.h
			id := r.ID
			cp := append([]int(nil), ids...)
			s.notifyLocked(func() { h.OnStart(id, cp) })
		}
	}
}

// pushViewsLocked queues OnViews notifications for applications whose views
// changed by value since the last push. Views are trimmed to [now, ∞): their
// values in the past are reconstruction artifacts.
//
// The non-preemptive half is pushed whole: it names every cluster of the
// server (s.pools, so a detach or attach is followed), a cluster without
// availability with stepfunc.Zero() — the view algebra drops zero profiles,
// and the OnViews contract reads a cluster left out as unchanged. The
// scheduler keeps a view's map while its value holds, so a session handed
// the map its last push came from, before that map's trim horizon, is
// skipped without a trim, a completion or a comparison (see pushed); it also
// shares maps across applications (idle applications in a CBF run see one
// map), so the trim and the completion are memoized by view identity.
//
// The preemptive half is a segment naming only the clusters whose profile
// changed by value since the session's last push — every cluster on its
// first push and on the first after the cluster set changed (pAll). The
// scheduler reports which fragments are new objects since the last pass
// (core.AppState.ViewsSince), trimmed at the round's instant, so only those
// are compared, and sessions handed equal segments share one map.
func (s *Server) pushViewsLocked() {
	now := s.clk.Now()
	s.resetTrimLocked(now)
	if s.segMemo == nil {
		s.segMemo = make(map[*stepfunc.StepFunc]view.View)
	}
	for _, a := range s.sched.Apps() {
		sess := s.sessions[a.ID]
		s.seg, s.segAll, s.segChanged = s.seg[:0], sess.pAll, false
		npv := a.ViewsSince(sess.pAll, s.noteP)
		if !s.refreshLocked(&sess.np, npv, now) && !s.segChanged {
			continue
		}
		sess.pAll = false
		// Views are pushed without cloning: the OnViews contract makes them
		// immutable to the handler, and sessions sharing a map (idle
		// applications) share one trimmed object.
		s.pending = append(s.pending, notice{h: sess.h, np: sess.np.v, p: s.segmentLocked()})
	}
	clear(s.seg) // pin nothing
	clear(s.segMemo)
}

// segEntry is one cluster of a preemptive segment.
type segEntry struct {
	cid view.ClusterID
	f   *stepfunc.StepFunc
}

// notePLocked takes one cluster ViewsSince reported for the session being
// pushed: was is what the session was last told, now what it holds (nil:
// zero). A cluster is named when its value changed, or when the segment
// names all; a cluster the server no longer has is not named (a federation
// names it zero), but its loss is a change.
func (s *Server) notePLocked(cid view.ClusterID, was, now *stepfunc.StepFunc) {
	if sameProfile(was, now) {
		if !s.segAll {
			return
		}
	} else {
		s.segChanged = true
	}
	if now == nil {
		if _, ok := s.pools[cid]; !ok {
			return
		}
		now = stepfunc.Zero()
	}
	s.seg = append(s.seg, segEntry{cid, now})
}

// sameProfile reports whether two reported fragments are equal; nil is zero,
// and a fragment the scheduler hands out is never zero.
func sameProfile(was, now *stepfunc.StepFunc) bool {
	if was == nil || now == nil {
		return was == now
	}
	return was.Equal(now)
}

// segmentLocked returns the collected segment as a view, nil when it names
// nothing: the map an earlier session of this push pass was handed for the
// same profiles at the same clusters, else a new one. The scheduler's
// clusters are the server's (s.pools), so a segment that names all names
// every cluster of the server.
func (s *Server) segmentLocked() view.View {
	if len(s.seg) == 0 {
		return nil
	}
	key := s.seg[0].f
	if m, ok := s.segMemo[key]; ok && m.Len() == len(s.seg) {
		hit := true
		for _, e := range s.seg {
			if f, ok := m.Lookup(e.cid); !ok || f != e.f {
				hit = false
				break
			}
		}
		if hit {
			return m
		}
	}
	v := view.NewSized(len(s.seg))
	for _, e := range s.seg {
		v.Put(e.cid, e.f)
	}
	s.segMemo[key] = v
	return v
}

// pushed is the non-preemptive half of a session's last push: the trimmed,
// completed view the handler holds, the scheduler map that
// view was last derived from and the instant it was trimmed at. The map is
// held, so its address cannot be recycled. While the scheduler hands over the
// same map before its trim horizon — its first breakpoint after that instant
// — the view derived from it is v, exactly: TrimBefore at t₁ and at t₂ agree
// when no breakpoint lies in (t₁, t₂]. The horizon is computed by the first
// round that is handed the same map again, so a map that changes every round
// costs nothing more. The completion reads s.pools, so a change there
// expires every horizon (expirePushHorizonsLocked).
type pushed struct {
	v       view.View // nil before the first push
	src     view.View
	at      float64
	horizon float64 // NaN until computed
}

// refreshLocked brings the non-preemptive half of a session's last push up
// to src at now and reports whether its value changed.
func (s *Server) refreshLocked(h *pushed, src view.View, now float64) bool {
	if h.v != nil && view.Same(src, h.src) {
		if math.IsNaN(h.horizon) {
			h.horizon = math.Inf(1)
			for _, f := range src.All() {
				h.horizon = min(h.horizon, f.NextBreakpoint(h.at))
			}
		}
		if now < h.horizon {
			return false
		}
	}
	key := src.Key()
	t, ok := s.trimMemo[key]
	if !ok {
		t = s.trimLocked(src, now)
		s.trimMemo[key] = t
	}
	h.src, h.at, h.horizon = src, now, math.NaN()
	changed := h.v == nil || !h.v.Equal(t)
	// Taken even when its value held: v must be what src derives, names
	// included — s.pools may have changed since the last push, and a later
	// push that skips this half by identity sends v.
	h.v = t
	return changed
}

// trimLocked trims v at now and completes it to the server's clusters,
// trimming each profile once per instant. A view that is already trimmed and
// names every cluster comes back as the same map.
func (s *Server) trimLocked(v view.View, now float64) view.View {
	if now != s.trimAt || s.trimProfs == nil {
		s.resetTrimLocked(now)
	}
	// t stays nil until a profile changes or a cluster is missing (a view
	// names only the server's clusters).
	var t view.View
	if v.Len() < len(s.pools) {
		t = view.NewSized(len(s.pools))
		for cid := range s.pools {
			t.Put(cid, stepfunc.Zero())
		}
		v.CopyInto(t)
	}
	for cid, f := range v.All() {
		if now < f.NextBreakpoint(0) {
			continue // nothing before now: TrimBefore(now) is f
		}
		g, ok := s.trimProfs[f]
		if !ok {
			g = f.TrimBefore(now) // stepfunc.Zero() when nothing is left
			s.trimProfs[f] = g
		}
		if t == nil {
			t = v.Clone()
		}
		t.Put(cid, g)
	}
	if t == nil {
		return v
	}
	return t
}

// resetTrimLocked empties the trim memo and dates it now.
func (s *Server) resetTrimLocked(now float64) {
	if s.trimProfs == nil {
		s.trimMemo, s.trimProfs = make(map[uintptr]view.View), make(map[*stepfunc.StepFunc]*stepfunc.StepFunc)
	}
	clear(s.trimMemo)
	clear(s.trimProfs)
	s.trimAt = now
}

// expirePushHorizonsLocked makes the next push pass trim, complete and
// compare every session's non-preemptive view afresh, and name every
// cluster in its preemptive segment; s.pools changed.
func (s *Server) expirePushHorizonsLocked() {
	for _, sess := range s.sessions {
		sess.np.horizon, sess.pAll = math.Inf(-1), true
	}
}

// enforcePreemptionLocked kills applications that keep holding more
// preemptible resources than granted past the grace period ("applications
// which steal resources", §A.6). It returns the earliest pending kill
// deadline (+Inf if none) so the server can arm a wake-up for it.
func (s *Server) enforcePreemptionLocked(now float64) float64 {
	var toKill []*Session
	earliest := math.Inf(1)
	// Connection order keeps multi-kill rounds (and their OnKill
	// notification order) deterministic.
	for _, a := range s.sched.Apps() {
		sess := s.sessions[a.ID]
		deficit := false
		for _, r := range sess.app.P.All() {
			if r.Started() && !r.Finished && len(r.NodeIDs) > r.NAlloc {
				deficit = true
				break
			}
		}
		if !sess.inDeficit && deficit {
			sess.deficitSince = now
		}
		sess.inDeficit = deficit
		if !deficit {
			continue
		}
		deadline := sess.deficitSince + s.cfg.GracePeriod
		if now >= deadline {
			toKill = append(toKill, sess)
		} else if deadline < earliest {
			earliest = deadline
		}
	}
	for _, sess := range toKill {
		s.killLocked(sess, "protocol violation: preemptible resources not released within the grace period")
	}
	return earliest
}

// recordPreAllocLocked updates the accounting extension's pre-allocation
// integrals.
func (s *Server) recordPreAllocLocked(now float64) {
	if s.cfg.Metrics == nil {
		return
	}
	for _, app := range s.sched.Apps() {
		pre := 0
		for _, r := range app.PA.All() {
			if r.Started() && !r.Ended(now) {
				pre += r.N
			}
		}
		s.cfg.Metrics.SetPreAlloc(app.ID, now, pre)
	}
}

// armWakeLocked sets a timer for the next interesting instant: the earliest
// future request start, allocation end, or preemption-kill deadline.
func (s *Server) armWakeLocked(now float64, deadline float64) {
	next := deadline
	for _, app := range s.sched.Apps() {
		if app.PA.Len() == 0 && app.NP.Len() == 0 && app.P.Len() == 0 {
			continue
		}
		for _, set := range [...]*request.Set{app.PA, app.NP, app.P} {
			for _, r := range set.All() {
				// Held requests never start; their scheduled time is not a
				// wake-worthy instant (the reservation coordinator drives
				// them on its own timers).
				if !r.Started() && !r.Finished && !r.Held && r.ScheduledAt > now && !math.IsInf(r.ScheduledAt, 1) {
					if r.ScheduledAt < next {
						next = r.ScheduledAt
					}
				}
				if r.Started() && !r.Finished {
					if end := r.End(); end > now && end < next {
						next = end
					}
				}
			}
		}
	}
	if s.wakeTimer != nil {
		s.wakeTimer.Stop()
		s.wakeTimer = nil
	}
	if !math.IsInf(next, 1) {
		s.wakeTimer = s.clk.AfterFunc(next-now, "rms.wake", func() {
			s.mu.Lock()
			if !s.schedPending {
				s.requestRunLocked()
			}
			s.mu.Unlock()
			s.flush()
		})
	}
}
