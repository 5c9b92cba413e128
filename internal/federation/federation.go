// Package federation scales the CooRMv2 RMS horizontally: a Federator
// front-end partitions the cluster set across N independent rms.Server
// shards, routes application sessions and request()/done() calls to the
// shard owning their target cluster, and forwards each shard's
// non-preemptive/preemptive views — a segment naming the clusters the shard
// owns (see rms.AppHandler.OnViews) — to the application untouched.
// Scheduling semantics are untouched — every shard runs the unmodified §3
// algorithm over its own clusters; the federation layer only routes and
// forwards.
//
// Like the rest of the system the Federator is clock-agnostic: under
// clock.SimClock all shards advance deterministically on one shared virtual
// clock (the federated experiment scenarios), and under clock.RealClock the
// shards run concurrently, each behind its own lock, with
// internal/transport routing TCP sessions to them.
//
// Identifier spaces: there is one of each, and the Federator owns both.
// Application IDs are assigned by the front-end and registered verbatim on
// every shard (rms.Server.ConnectID), so per-shard metrics recorders
// aggregate by the same ID. Request IDs likewise: the front-end draws them
// sequentially and the owning shard admits the request under that ID
// (rms.Session.RequestID), so a notification, an error or an obs event from
// any shard quotes the ID request() returned, and a request keeps it across
// crash replay and cluster migration. What a session keeps per request is one
// record in one table (fedReq): where it lives (the shard), how it stands
// there, the spec to replay and, for a gang child, its reservation —
// registered atomically with the shard's own bookkeeping through RequestID's
// observe hook.
//
// Shard lifecycle: CrashShard/RestartShard give every shard a crash/restart
// cycle (driven deterministically by internal/chaos inside the simulator).
// The shard's rms.Server.Stopped is the one answer to whether it is down. A
// crash stops the shard's rms.Server — its scheduler-side state is gone, its
// node-ID pools and the dead machines they record are not — and the
// Federator applies the configured RecoveryPolicy to the sessions that lost
// state: KillOnCrash terminates them per §3.1.4, RequeueOnCrash marks their
// records queued and re-submits those, in ID order, when the shard rejoins
// empty. Survivors keep running, told by a segment naming the dead shard's
// clusters with zero profiles that those are gone. A session's admission to
// the shards (Connect) is a topology transition as well, serialized with the
// three above.
//
// Cross-shard gang scheduling: a request may relate (NEXT/COALLOC) to a
// request on another shard. The Federator runs a two-phase reservation for
// such gangs (see gang.go): a tentative hold reserves capacity in the child
// shard's schedule (rms.Session.HoldID), a coordinator aligns the two
// legs by exchanging NotBefore floors, and the hold is committed into a real
// request when both legs fit — or released and retried with backoff, then
// dropped, when the child leg cannot fit at all. Shard-locally the legs are
// unrelated (the relation lives in the session's record only), so holds never
// entangle clusters: committed gangs stay migratable.
package federation

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/metrics"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// RecoveryPolicy selects what the Federator does with the sessions affected
// by a shard crash (internal/chaos drives the crashes).
type RecoveryPolicy uint8

const (
	// KillOnCrash applies the paper's §3.1.4 semantics: an application whose
	// scheduler-side state is lost is killed — every session with a live
	// request on the crashed shard receives OnKill and is torn down on the
	// surviving shards. Sessions with no live state there survive, and new
	// requests targeting the dead shard fail until it restarts.
	KillOnCrash RecoveryPolicy = iota
	// RequeueOnCrash keeps the affected sessions alive: their live requests
	// on the crashed shard become queued records and are re-submitted —
	// under the same federated IDs, in ID (submission) order — when the
	// shard rejoins with empty state. Requests submitted while the shard is
	// down are queued the same way; done() on a queued request drops it.
	RequeueOnCrash
)

// String names the policy for reports and traces.
func (p RecoveryPolicy) String() string {
	switch p {
	case KillOnCrash:
		return "kill"
	case RequeueOnCrash:
		return "requeue"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", uint8(p))
	}
}

// Config parametrizes a Federator. The scheduling knobs (ReschedInterval,
// Policy, GracePeriod) are applied uniformly to every shard.
type Config struct {
	// Clusters is the full federated cluster set.
	Clusters map[view.ClusterID]int
	// Shards is the number of scheduler shards. It is clamped to
	// [1, len(Clusters)]: a cluster is never split across shards.
	Shards int
	// ReschedInterval is the per-shard re-scheduling interval (§3.2).
	ReschedInterval float64
	// Clock drives every shard; use clock.SimClock for simulations.
	Clock clock.Clock
	// Policy selects the preemptible division policy.
	Policy core.PreemptPolicy
	// GracePeriod is the per-shard protocol-violation grace period.
	GracePeriod float64
	// Clip optionally limits every application's non-preemptive view; every
	// shard gets it (rms.Config.Clip).
	Clip view.View
	// Metrics, when non-nil, is called once per shard (in shard order,
	// during New) to create that shard's recorder; returning nil disables
	// metrics for the shard. Shards must not share a recorder: each
	// reports per-shard allocation state keyed by the federated
	// application ID, and metrics.Aggregate sums them back together.
	Metrics func(shard int) *metrics.Recorder
	// Recovery selects the shard-crash recovery policy (default:
	// KillOnCrash, the paper's §3.1.4 semantics).
	Recovery RecoveryPolicy
	// NodeRecovery selects the per-request node-failure recovery policy,
	// applied uniformly by every shard (default: KillOnNodeFailure).
	NodeRecovery rms.NodeRecoveryPolicy
	// FullRecompute disables incremental scheduling on every shard (each
	// round recomputes from scratch). The chaos×migration differential test
	// pins the two modes byte-identical; production leaves it off.
	FullRecompute bool
	// Scheduling, when non-nil, is called once per shard (in shard order,
	// during New) to create that shard's application-ordering policy;
	// returning nil leaves the shard on connection-order FIFO. Shards must
	// not share a policy instance — each carries per-round scratch state —
	// but may (and for tenant quotas should) share one sealed tenants.Tree,
	// so a queue's per-cluster guarantees follow its clusters through
	// migration. The policy survives crash/restart: Reset re-installs it on
	// the fresh scheduler.
	Scheduling func(shard int) core.SchedulingPolicy
	// Obs, when non-nil, is threaded through every shard (labelled
	// "shard<i>") and additionally records federation-level signals:
	// migration pauses, shard outage durations, and crash/restart events.
	Obs *obs.Registry
}

// Federator routes application sessions across a set of rms.Server shards.
type Federator struct {
	shards       []*rms.Server
	clk          clock.Clock
	recovery     RecoveryPolicy
	nodeRecovery rms.NodeRecoveryPolicy
	stats        fedStats

	// topoMu serializes topology transitions — CrashShard, RestartShard,
	// MigrateCluster and Connect (a session's admission to the running
	// shards) — against each other, so a migration or an admission can never
	// observe a shard half-crashed (or vice versa). It is taken before f.mu
	// and before any shard lock; nothing nests the other way. Handler
	// callbacks never acquire it: applications re-entering the federator from
	// a notification only use the session surface.
	topoMu sync.Mutex

	mu        sync.Mutex
	owner     map[view.ClusterID]int // cluster → shard index; mutated by migration
	nextApp   int
	nextReq   request.ID
	sessions  map[int]*Session // live federated sessions by app ID
	migrating view.ClusterID   // the turns of migrate.go; turnCond is on mu
	turns     map[view.ClusterID]int
	turnCond  sync.Cond

	// Observability (nil when Config.Obs is nil). crashedAt remembers each
	// shard's last crash instant so RestartShard can record the outage
	// duration (sim seconds under SimClock — deterministic — and wall
	// seconds under RealClock).
	obsReg    *obs.Registry
	hMigrate  *obs.Histogram
	hOutage   *obs.Histogram
	hGang     *obs.Histogram
	crashedAt []float64

	// reschedInterval mirrors the per-shard re-scheduling interval: the gang
	// coordinator paces its reservation evaluations on it, so a hold→commit
	// window always spans at least one shard round (and chaos faults can land
	// inside it).
	reschedInterval float64
}

// fedStats are the federation's event counters, exported through Stats and
// the "fed" obs counter group. Atomics: sessions record them under their own
// per-session locks.
type fedStats struct {
	// Shard-crash recovery: sessions killed because a shard holding their
	// live state crashed (§3.1.4); live requests marked queued for replay
	// (crash, or submitted while the shard was down); queued requests
	// re-submitted to the restarted shard; and queued requests that never
	// made it back (done() while queued, failed replay, aborted gang).
	killedSessions   atomic.Int64
	requeuedRequests atomic.Int64
	replayedRequests atomic.Int64
	droppedRequests  atomic.Int64
	migratedClusters atomic.Int64 // live cluster migrations
	// Cross-shard two-phase reservations (gang.go): holds committed into real
	// requests, reservations abandoned for good, and hold re-placements after
	// a release or crash.
	gangCommitted atomic.Int64
	gangAborted   atomic.Int64
	gangRetried   atomic.Int64
}

// Stats returns the federation's cumulative event counters.
func (f *Federator) Stats() map[string]int64 {
	st := &f.stats
	return map[string]int64{
		"killed_sessions":   st.killedSessions.Load(),
		"requeued_requests": st.requeuedRequests.Load(),
		"replayed_requests": st.replayedRequests.Load(),
		"dropped_requests":  st.droppedRequests.Load(),
		"migrated_clusters": st.migratedClusters.Load(),
		"gang_committed":    st.gangCommitted.Load(),
		"gang_aborted":      st.gangAborted.Load(),
		"gang_retried":      st.gangRetried.Load(),
	}
}

// MergeStats returns (0, 0): sessions forward shard segments and merge
// nothing. It stays only because the benchmark module (bench/run.go) calls
// it.
func (f *Federator) MergeStats() (dirty, clean int64) { return 0, 0 }

// Partition splits a cluster set into at most n per-shard cluster sets,
// assigning clusters round-robin in sorted ID order so the split is
// deterministic. It never returns an empty shard: n is clamped to
// [1, len(clusters)].
func Partition(clusters map[view.ClusterID]int, n int) []map[view.ClusterID]int {
	if len(clusters) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(clusters) {
		n = len(clusters)
	}
	ids := make([]view.ClusterID, 0, len(clusters))
	for cid := range clusters {
		ids = append(ids, cid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]map[view.ClusterID]int, n)
	for i := range parts {
		parts[i] = make(map[view.ClusterID]int)
	}
	for i, cid := range ids {
		parts[i%n][cid] = clusters[cid]
	}
	return parts
}

// New creates a Federator and its shards. It panics on an invalid
// configuration, as rms.NewServer does.
func New(cfg Config) *Federator {
	if cfg.Clock == nil {
		panic("federation: Config.Clock is required")
	}
	if len(cfg.Clusters) == 0 {
		panic("federation: at least one cluster is required")
	}
	parts := Partition(cfg.Clusters, cfg.Shards)
	f := &Federator{
		shards:       make([]*rms.Server, len(parts)),
		owner:        make(map[view.ClusterID]int, len(cfg.Clusters)),
		clk:          cfg.Clock,
		recovery:     cfg.Recovery,
		nodeRecovery: cfg.NodeRecovery,
		sessions:     make(map[int]*Session),
		turns:        make(map[view.ClusterID]int),
		nextApp:      1,
		nextReq:      1,
	}
	f.turnCond.L = &f.mu
	f.reschedInterval = cfg.ReschedInterval
	if f.reschedInterval <= 0 {
		f.reschedInterval = 1
	}
	if cfg.Obs != nil {
		f.obsReg = cfg.Obs
		f.hMigrate = cfg.Obs.Hist("fed.migration_pause_seconds")
		f.hOutage = cfg.Obs.Hist("fed.outage_seconds")
		f.hGang = cfg.Obs.Hist("fed.gang_reserve_seconds")
		f.crashedAt = make([]float64, len(parts))
		cfg.Obs.RegisterCounters("fed", f.Stats)
	}
	for i, part := range parts {
		var rec *metrics.Recorder
		if cfg.Metrics != nil {
			rec = cfg.Metrics(i)
		}
		var sched core.SchedulingPolicy
		if cfg.Scheduling != nil {
			sched = cfg.Scheduling(i)
		}
		f.shards[i] = rms.NewServer(rms.Config{
			Clusters:        part,
			ReschedInterval: cfg.ReschedInterval,
			Clock:           cfg.Clock,
			Policy:          cfg.Policy,
			GracePeriod:     cfg.GracePeriod,
			Clip:            cfg.Clip,
			Metrics:         rec,
			NodeRecovery:    cfg.NodeRecovery,
			FullRecompute:   cfg.FullRecompute,
			Scheduling:      sched,
			Obs:             cfg.Obs,
			ObsLabel:        fmt.Sprintf("shard%d", i),
		})
		for cid := range part {
			f.owner[cid] = i
		}
	}
	return f
}

// NumShards returns the number of scheduler shards (after clamping).
func (f *Federator) NumShards() int { return len(f.shards) }

// Shard exposes one shard for inspection (tests, benchmarks, experiment
// harness). Mutating it directly is not supported.
func (f *Federator) Shard(i int) *rms.Server { return f.shards[i] }

// Owner returns the index of the shard currently owning a cluster. Ownership
// is fixed at construction by Partition and changes only through
// MigrateCluster.
func (f *Federator) Owner(cid view.ClusterID) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.owner[cid]
	return i, ok
}

// Now returns the federation's current time.
func (f *Federator) Now() float64 { return f.clk.Now() }

// TenantLoads aggregates the node IDs held per tenant label per cluster
// across the shards (see rms.Server.TenantLoads). Down shards contribute
// nothing: a crash loses the sessions, and with them the allocations, the
// shard would report, exactly as the views do.
func (f *Federator) TenantLoads() map[string]map[view.ClusterID]int {
	out := make(map[string]map[view.ClusterID]int)
	for _, sh := range f.shards {
		for tenant, loads := range sh.TenantLoads() {
			m := out[tenant]
			if m == nil {
				m = make(map[view.ClusterID]int)
				out[tenant] = m
			}
			for cid, n := range loads {
				m[cid] += n
			}
		}
	}
	return out
}

// TenantPreempts sums the per-tenant quota-preemption revocation counts
// across running shards. A shard's tally is cumulative and, like its other
// event counters (rms.Server.Stats), survives crash and restart; only a shard
// that is down right now is left out of the sum.
func (f *Federator) TenantPreempts() map[string]int64 {
	out := make(map[string]int64)
	for _, sh := range f.shards {
		if sh.Stopped() {
			continue
		}
		for tenant, n := range sh.TenantPreempts() {
			out[tenant] += n
		}
	}
	return out
}

// Connect registers an application with every running shard under one
// federated application ID and returns the federated session. Connecting to
// all shards eagerly has every shard push the application the views of the
// clusters it owns, forwarded untouched, so what the application holds adds
// up to the full-cluster-set views a single RMS would push. Crashed shards
// are skipped; the session is re-admitted to them when they restart.
// Connect options (e.g. rms.WithTenant) are applied on every shard and
// replayed on each re-admission, so tenant identity survives shard
// crash/restart and follows the session everywhere it is scheduled.
//
// Connect is a topology transition: it holds topoMu like RestartShard, the
// other admission, so a crash or restart is ordered wholly before it (and
// shows in the shards' Stopped) or wholly after (and sweeps or re-admits the
// registered session itself). Like MigrateCluster and CheckInvariants it must
// not be called from inside a notification handler — handlers run under
// topoMu whenever a topology transition flushes them.
func (f *Federator) Connect(h rms.AppHandler, opts ...rms.ConnectOption) *Session {
	sess := &Session{
		f:         f,
		h:         h,
		connect:   opts,
		subs:      make([]*rms.Session, len(f.shards)),
		handlers:  make([]*shardHandler, len(f.shards)),
		reqs:      make(map[request.ID]*fedReq),
		movedFrom: make(map[view.ClusterID]int),
	}
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	f.mu.Lock()
	sess.id = f.nextApp
	f.nextApp++
	f.sessions[sess.id] = sess
	f.mu.Unlock()
	// Admit outside the federator lock: ConnectID flushes notifications,
	// which may synchronously re-enter the session (and, through an
	// application handler, the federator's Owner/nextRequestID). A shard
	// stops or restarts only under topoMu, which is held.
	for i, sh := range f.shards {
		if !sh.Stopped() {
			sess.admitShard(i)
		}
	}
	return sess
}

// removeSession forgets a disconnected or killed session.
func (f *Federator) removeSession(id int) {
	f.mu.Lock()
	delete(f.sessions, id)
	f.mu.Unlock()
}

// sessionsLocked returns the live sessions in ascending app-ID order, the
// iteration order of every crash/restart sweep (determinism).
func (f *Federator) sessionsLocked() []*Session {
	out := make([]*Session, 0, len(f.sessions))
	for _, sess := range f.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ShardDown reports whether shard i is currently crashed.
func (f *Federator) ShardDown(i int) bool { return f.shards[i].Stopped() }

// CrashReport summarizes what one shard crash did to the federation.
type CrashReport struct {
	Shard  int
	Policy RecoveryPolicy
	// Killed lists the app IDs killed under KillOnCrash, ascending.
	Killed []int
	// Requeued counts live requests marked queued for replay (RequeueOnCrash).
	Requeued int
	// Purged counts finished-request mappings discarded with the shard's
	// state (they could only be referenced by state that no longer exists).
	Purged int
	// GangsAborted counts cross-shard reservations whose held leg died with
	// the shard and was aborted rather than requeued (KillOnCrash). Included
	// in Purged.
	GangsAborted int
}

// String renders the report as one deterministic trace line. The gang field
// is appended only when present, keeping gang-free traces byte-identical to
// earlier versions.
func (r CrashReport) String() string {
	line := fmt.Sprintf("crash shard=%d policy=%s killed=%v requeued=%d purged=%d",
		r.Shard, r.Policy, r.Killed, r.Requeued, r.Purged)
	if r.GangsAborted > 0 {
		line += fmt.Sprintf(" gangs-aborted=%d", r.GangsAborted)
	}
	return line
}

// RestartReport summarizes a shard restart.
type RestartReport struct {
	Shard       int
	Reconnected int // live sessions re-admitted to the shard
	Replayed    int // queued requests successfully re-submitted
	Dropped     int // queued requests dropped at replay
}

// String renders the report as one deterministic trace line.
func (r RestartReport) String() string {
	return fmt.Sprintf("restart shard=%d reconnected=%d replayed=%d dropped=%d",
		r.Shard, r.Reconnected, r.Replayed, r.Dropped)
}

// CrashShard kills shard i: its rms.Server is stopped (scheduler-side state
// gone, metrics closed out at the crash instant) and every live session
// absorbs the loss per the recovery policy — KillOnCrash terminates sessions
// with live requests there (§3.1.4), RequeueOnCrash marks those requests
// queued. Survivors immediately receive a segment naming the dead shard's
// clusters with zero profiles. Crashing an already-down shard is a no-op.
func (f *Federator) CrashShard(i int) CrashReport {
	if i < 0 || i >= len(f.shards) {
		panic(fmt.Sprintf("federation: CrashShard(%d) with %d shards", i, len(f.shards)))
	}
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	rep := CrashReport{Shard: i, Policy: f.recovery}
	if f.shards[i].Stopped() {
		return rep
	}
	// Stop makes no callbacks; the shard is down from here on, as Stopped
	// reports to every reader.
	f.shards[i].Stop()
	f.mu.Lock()
	sessions := f.sessionsLocked()
	// One segment for every survivor: the dead shard's clusters, named zero.
	lost := view.New()
	for cid, own := range f.owner {
		if own == i {
			lost.Put(cid, stepfunc.Zero())
		}
	}
	f.mu.Unlock()

	if f.obsReg != nil {
		// crashedAt is guarded by topoMu, held for the whole crash/restart.
		f.crashedAt[i] = f.clk.Now()
		f.obsReg.Event(obs.Event{Time: f.crashedAt[i], Type: obs.EvCrash, Shard: fmt.Sprintf("shard%d", i)})
	}

	var killed []*Session
	type purgeNotice struct{ ended, reaped []request.ID }
	notices := make(map[*Session]purgeNotice)
	for _, sess := range sessions {
		affected, requeued, purged, gangsAborted, ended, reaped := sess.absorbCrash(i, f.recovery)
		rep.Requeued += requeued
		rep.Purged += purged
		rep.GangsAborted += gangsAborted
		if len(reaped) > 0 {
			notices[sess] = purgeNotice{ended, reaped}
		}
		if affected && f.recovery == KillOnCrash {
			killed = append(killed, sess)
			rep.Killed = append(rep.Killed, sess.id)
		}
	}
	f.stats.killedSessions.Add(int64(len(killed)))
	f.stats.requeuedRequests.Add(int64(rep.Requeued))
	// An aborted gang's child is a dropped request as well.
	f.stats.gangAborted.Add(int64(rep.GangsAborted))
	f.stats.droppedRequests.Add(int64(rep.GangsAborted))
	// Deliver outcomes with no federation lock held: finish/reap events for
	// the purged mappings, kills for the affected sessions, the lost clusters
	// to the survivors.
	for _, sess := range sessions {
		n := notices[sess]
		sess.notifyRetired(n.ended, n.reaped)
	}
	reason := fmt.Sprintf("federation: shard %d crashed and its scheduler-side state was lost", i)
	for _, sess := range killed {
		sess.teardown(reason)
	}
	for _, sess := range sessions {
		sess.queueLost(lost, -1)
		sess.deliver()
	}
	return rep
}

// RestartShard brings a crashed shard back: its rms.Server is Reset to
// empty scheduling state (its dead machines stay dead: the shard's pools
// keep them), the Federator re-admits every live session (the shard's
// clusters reappear in the views on its next scheduling round), and —
// under RequeueOnCrash — every session's queued records are re-submitted in
// (session-ID, request-ID) order under their original federated request IDs.
// Restarting a running shard is a no-op.
func (f *Federator) RestartShard(i int) RestartReport {
	if i < 0 || i >= len(f.shards) {
		panic(fmt.Sprintf("federation: RestartShard(%d) with %d shards", i, len(f.shards)))
	}
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	rep := RestartReport{Shard: i}
	if !f.shards[i].Stopped() {
		return rep
	}
	f.shards[i].Reset()
	f.mu.Lock()
	sessions := f.sessionsLocked()
	f.mu.Unlock()

	if f.obsReg != nil {
		now := f.clk.Now()
		outage := now - f.crashedAt[i]
		f.hOutage.Record(outage)
		f.obsReg.Event(obs.Event{Time: now, Type: obs.EvRestart, Shard: fmt.Sprintf("shard%d", i), Value: outage})
	}

	for _, sess := range sessions {
		if sess.admitShard(i) {
			rep.Reconnected++
		}
	}
	for _, sess := range sessions {
		replayed, dropped := sess.replayQueue(i)
		rep.Replayed += replayed
		rep.Dropped += dropped
	}
	f.stats.replayedRequests.Add(int64(rep.Replayed)) // drops are counted as they happen
	return rep
}

// CheckInvariants verifies the cross-shard bookkeeping: every running shard
// passes its own accounting check, no shard hosts a session the federation
// no longer knows (orphans), every live session is admitted to every
// running shard, every running shard holds exactly the requests the sessions
// place on it (same IDs, none leaked), queued records exist only for crashed
// shards, and cluster
// ownership is an exact bijection — every shard hosts precisely the
// clusters the owner table assigns it (no cluster owned by two shards, none
// stranded by a migration), and every request mapping routes to the shard
// owning its target cluster. It is the federation half of the chaos
// harness's invariant checker, and runs after every fault and migration in
// the chaos×migration matrix.
func (f *Federator) CheckInvariants() error {
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	down := make([]bool, len(f.shards))
	for i, sh := range f.shards {
		down[i] = sh.Stopped()
	}
	f.mu.Lock()
	owner := maps.Clone(f.owner)
	sessions := f.sessionsLocked()
	f.mu.Unlock()

	// Cluster-ownership bijection. Down shards are included: a crash loses
	// scheduler state, not ownership, and migrations never touch down shards.
	hosted := 0
	for i, sh := range f.shards {
		for cid := range sh.Clusters() {
			own, ok := owner[cid]
			if !ok {
				return fmt.Errorf("federation: shard %d hosts unknown cluster %q", i, cid)
			}
			if own != i {
				return fmt.Errorf("federation: cluster %q hosted by shard %d but owned by shard %d", cid, i, own)
			}
			hosted++
		}
	}
	if hosted != len(owner) {
		return fmt.Errorf("federation: %d clusters owned but %d hosted", len(owner), hosted)
	}

	live := make(map[int]bool, len(sessions))
	for _, sess := range sessions {
		live[sess.id] = true
	}
	for i, sh := range f.shards {
		if down[i] {
			continue
		}
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("federation: shard %d: %w", i, err)
		}
		ids := sh.SessionIDs()
		admitted := make(map[int]bool, len(ids))
		for _, id := range ids {
			if !live[id] {
				return fmt.Errorf("federation: shard %d hosts orphaned session %d", i, id)
			}
			admitted[id] = true
		}
		for _, sess := range sessions {
			if !admitted[sess.id] {
				return fmt.Errorf("federation: live session %d not admitted to running shard %d", sess.id, i)
			}
		}
	}
	// Tenant identity is federation-wide: every running shard must report
	// the same tenant label for a session (admitShard replays the connect
	// options, so a restart re-admission can neither drop nor change it).
	for _, sess := range sessions {
		label, have := "", false
		labelShard := -1
		for i, sh := range f.shards {
			if down[i] {
				continue
			}
			got, ok := sh.TenantOf(sess.id)
			if !ok {
				continue // missing admissions are reported above
			}
			if !have {
				label, have, labelShard = got, true, i
				continue
			}
			if got != label {
				return fmt.Errorf("federation: session %d tenant %q on shard %d but %q on shard %d",
					sess.id, got, i, label, labelShard)
			}
		}
	}
	for _, sess := range sessions {
		if err := sess.checkInvariants(down, owner); err != nil {
			return err
		}
	}
	return nil
}

// nextRequestID reserves one request ID. An ID is burned even if the shard
// later rejects the request spec: IDs are never reused.
func (f *Federator) nextRequestID() request.ID {
	f.mu.Lock()
	id := f.nextReq
	f.nextReq++
	f.mu.Unlock()
	return id
}
