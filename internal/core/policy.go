package core

import (
	"math"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// RoundInfo carries the per-round inputs a SchedulingPolicy may consult.
// Clusters is the scheduler's live resource model (cluster ID → node
// count); policies must treat it as read-only.
type RoundInfo struct {
	Now      float64
	Clusters map[view.ClusterID]int
}

// SchedulingPolicy decides, once per Schedule round, in which order the
// applications are offered resources and which of them are admitted at
// all. The paper's scheduler hardwires Conservative Back-Filling in
// connection order (§3.2); this interface makes that order — and the
// admission of each application — a pluggable decision, so tenant-aware
// policies (internal/tenants) can reorder or gate applications without
// touching the round algorithms.
//
// Contract: Order is called exactly once per round, before any Admit call
// of that round, so a policy may compute shared per-round state (usage,
// shares) in Order and reuse it from Admit. Order must return a
// permutation of apps — every element exactly once; it may return apps
// itself (unchanged) or fill buf (passed with length 0 and the previous
// round's capacity) and return it. Admit reports whether the application
// may schedule *pending* work this round: a non-admitted application
// keeps its started and fixed allocations (and they keep counting against
// availability), but its unfixed pending requests are left unscheduled
// (ScheduledAt = +Inf, NAlloc = 0) and it is shown only its own started
// pre-allocations plus the free space.
type SchedulingPolicy interface {
	// Name identifies the policy in logs, stats, and reports.
	Name() string
	// Stable reports that the policy is the identity: Order always
	// returns the connection-order slice unchanged and Admit always
	// admits. A stable policy lets the scheduler skip the per-application
	// policy calls entirely, making its rounds byte-identical to the
	// pre-policy scheduler. A dynamic policy (Stable() == false) is asked
	// every round and keeps the caches too: the CBF chain is keyed on the
	// views its pass subtracted, in order, and an interval walk whose
	// division did not depend on the order follows a reordering.
	Stable() bool
	// Order returns the applications in the order the round offers them
	// resources (the CBF iteration order and the eqSchedule slot order).
	Order(info RoundInfo, apps []*AppState, buf []*AppState) []*AppState
	// Admit reports whether the application may schedule pending work
	// this round.
	Admit(info RoundInfo, a *AppState) bool
}

// VictimNominator is implemented by policies that also nominate started
// preemptible allocations for revocation (cross-queue preemption). The
// scheduler core never revokes anything itself — the RMS asks the policy
// after a round and performs the revocations (freeing node IDs, notifying
// the application), then schedules again so the relieved demand fits into
// the freed capacity.
type VictimNominator interface {
	// Victims returns started, unfinished, preemptible requests to
	// revoke, in revocation order. It must nominate a victim only when
	// the revocation actually relieves a demanding application's
	// shortage (same cluster, real pending demand); an empty return
	// means no preemption this round. buf is a reusable backing array
	// (passed with length 0).
	Victims(info RoundInfo, apps []*AppState, buf []*request.Request) []*request.Request
}

// FIFOPolicy is the default scheduling policy: the paper's connection
// order (Conservative Back-Filling, §3.2), every application admitted.
// It is stable, so the scheduler's incremental caches stay live and
// rounds are byte-identical to the hardwired pre-policy behaviour.
type FIFOPolicy struct{}

// Name implements SchedulingPolicy.
func (FIFOPolicy) Name() string { return "fifo" }

// Stable implements SchedulingPolicy: FIFO is the identity policy.
func (FIFOPolicy) Stable() bool { return true }

// Order implements SchedulingPolicy: connection order, unchanged.
func (FIFOPolicy) Order(_ RoundInfo, apps []*AppState, _ []*AppState) []*AppState {
	return apps
}

// Admit implements SchedulingPolicy: every application is admitted.
func (FIFOPolicy) Admit(RoundInfo, *AppState) bool { return true }

// SetSchedulingPolicy installs the application-ordering/admission policy
// (nil restores the default FIFOPolicy). The swap is a structural change:
// the next round recomputes everything, so nothing of the previous
// policy's rounds survives it.
func (s *Scheduler) SetSchedulingPolicy(p SchedulingPolicy) {
	if p == nil {
		p = FIFOPolicy{}
	}
	s.schedPolicy = p
	s.bumpStruct()
}

// SchedulingPolicy returns the active ordering/admission policy.
func (s *Scheduler) SchedulingPolicy() SchedulingPolicy { return s.schedPolicy }

// Info returns the RoundInfo a policy sees for a round at now. The
// Clusters map is the scheduler's live resource model, shared not
// copied — callers must treat it as read-only and must not retain it
// across structural changes (AttachCluster/DetachCluster).
func (s *Scheduler) Info(now float64) RoundInfo {
	return RoundInfo{Now: now, Clusters: s.clusters}
}

// unschedulePending clears the schedule of every unfixed pending request
// in the set: a non-admitted application's pending work is invisible to
// the round. Fixed requests (started allocations and their
// constraint-chained descendants, whose start instants are already
// determined by running work) are left alone.
func unschedulePending(rs *request.Set) {
	for _, r := range rs.All() {
		if r.Fixed || r.Finished {
			continue
		}
		r.ScheduledAt = math.Inf(1)
		r.NAlloc = 0
		r.Wrapped = false
	}
}
