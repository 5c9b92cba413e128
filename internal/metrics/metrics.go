// Package metrics accumulates the quantities reported in the paper's
// evaluation (§5): consumed resource areas (node·seconds), PSA waste
// (node·seconds lost to killed tasks), and the percentage of used resources.
//
// It also implements the accounting the paper lists as future work (§7):
// per-application pre-allocated area, so that an administrator can charge
// for reserved-but-unused resources and incentivize efficient usage.
package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Recorder integrates per-application allocation over time. The RMS calls
// SetAlloc whenever an application's node count changes; applications (or
// the harness) record waste explicitly.
//
// Recorder is safe for concurrent use so the same type serves the real
// daemon; inside the simulator all calls happen on the event loop.
type Recorder struct {
	mu   sync.Mutex
	apps map[int]*appTrack
}

type appTrack struct {
	lastT    float64
	cur      int     // currently allocated nodes
	curPre   int     // currently pre-allocated nodes
	area     float64 // integral of allocated nodes
	preArea  float64 // integral of pre-allocated nodes
	waste    float64 // node·seconds lost (killed preemptible tasks)
	maxAlloc int
	counts   [numCounters]int // fault-recovery event counters
}

// Counter identifies a fault-recovery event counter. The federation layer
// records them when a scheduler shard crashes or restarts
// (internal/federation, internal/chaos).
type Counter uint8

const (
	// KilledSessions counts sessions killed because the shard holding their
	// scheduler-side state crashed (§3.1.4 semantics).
	KilledSessions Counter = iota
	// RequeuedRequests counts live requests moved to a replay queue when
	// their shard crashed (or submitted while it was down).
	RequeuedRequests
	// ReplayedRequests counts queued requests successfully re-submitted to a
	// restarted shard.
	ReplayedRequests
	// DroppedRequests counts queued requests that never made it back onto a
	// shard: done() while queued, a failed replay, or an unresolvable
	// relation after the crash.
	DroppedRequests
	// ChurnRequests counts accepted request() operations. Recorded by the RMS
	// per application; summed over a shard recorder it is the shard's request
	// churn, one of the two load signals the federation rebalancer acts on
	// (the other is pool occupancy, see TotalCurrent).
	ChurnRequests
	// MigratedRequests counts request mappings handed over to another shard
	// by a live cluster migration (internal/federation.MigrateCluster).
	MigratedRequests
	// MigratedClusters counts live cluster migrations. The federation records
	// it under application ID 0 — the pseudo-app standing for the federation
	// itself, since a migration is not attributable to one application.
	MigratedClusters
	// RemergedShardViews counts shard views that had been replaced since the
	// session's previous merge when its merged view was delivered (the dirty
	// views that forced the merge); ReusedShardViews counts shard views that
	// had not. Every delivery rebuilds the union, so the split measures
	// update locality across the fleet, not work avoided. Federation-level
	// counters (pseudo-app 0).
	RemergedShardViews
	ReusedShardViews
	// FailedNodes / RecoveredNodes count individual node failures and
	// recoveries injected into a cluster (internal/rms.FailNodes and
	// RecoverNodes). Recorded under pseudo-app 0: a machine dying is not
	// attributable to one application.
	FailedNodes
	RecoveredNodes
	// NodeKilledRequests counts started requests terminated because a node
	// they held died under the kill policy (§3.1.4 applied per request);
	// NodeRequeuedRequests counts requests reset to pending for a full
	// re-run; NodeReducedRequests counts requests that kept running on
	// their surviving nodes under the cooperative policy (the application
	// was notified and chose checkpoint/resubmit behaviour itself).
	NodeKilledRequests
	NodeRequeuedRequests
	NodeReducedRequests
	// GangCommitted / GangAborted / GangRetried count cross-shard two-phase
	// reservations (internal/federation gang coordinator): gangs whose hold
	// converted into a real request, reservations abandoned after exhausting
	// their alignment/retry budget, and hold re-placements after an abort or
	// crash. Recorded under pseudo-app 0 — a reservation spans shards and is
	// a federation-level event.
	GangCommitted
	GangAborted
	GangRetried
	// PreemptedRequests counts started preemptible requests revoked by
	// quota preemption: a scheduling policy (internal/tenants DRF)
	// nominated them to relieve a starved guaranteed queue, and the RMS
	// terminated them and reclaimed their nodes.
	PreemptedRequests

	numCounters
)

// String names the counter for reports.
func (c Counter) String() string {
	switch c {
	case KilledSessions:
		return "killed-sessions"
	case RequeuedRequests:
		return "requeued-requests"
	case ReplayedRequests:
		return "replayed-requests"
	case DroppedRequests:
		return "dropped-requests"
	case ChurnRequests:
		return "churn-requests"
	case MigratedRequests:
		return "migrated-requests"
	case MigratedClusters:
		return "migrated-clusters"
	case RemergedShardViews:
		return "remerged-shard-views"
	case ReusedShardViews:
		return "reused-shard-views"
	case FailedNodes:
		return "failed-nodes"
	case RecoveredNodes:
		return "recovered-nodes"
	case NodeKilledRequests:
		return "node-killed-requests"
	case NodeRequeuedRequests:
		return "node-requeued-requests"
	case NodeReducedRequests:
		return "node-reduced-requests"
	case GangCommitted:
		return "gang-committed"
	case GangAborted:
		return "gang-aborted"
	case GangRetried:
		return "gang-retried"
	case PreemptedRequests:
		return "preempted-requests"
	default:
		return fmt.Sprintf("Counter(%d)", uint8(c))
	}
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{apps: make(map[int]*appTrack)}
}

func (r *Recorder) track(appID int) *appTrack {
	tr, ok := r.apps[appID]
	if !ok {
		tr = &appTrack{}
		r.apps[appID] = tr
	}
	return tr
}

// advance integrates the running counters up to time t. An out-of-order
// timestamp (t earlier than the last observation — possible when shard
// crash replays or real-clock skew deliver stale events) is clamped:
// the integrals never accumulate negative area and the track's time
// never moves backwards.
func (tr *appTrack) advance(t float64) {
	if t < tr.lastT {
		return
	}
	dt := t - tr.lastT
	tr.area += float64(tr.cur) * dt
	tr.preArea += float64(tr.curPre) * dt
	tr.lastT = t
}

// SetAlloc records that application appID holds n nodes from time t on.
func (r *Recorder) SetAlloc(appID int, t float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.track(appID)
	tr.advance(t)
	tr.cur = n
	if n > tr.maxAlloc {
		tr.maxAlloc = n
	}
}

// SetPreAlloc records that application appID has n nodes pre-allocated from
// time t on (the accounting extension of §7).
func (r *Recorder) SetPreAlloc(appID int, t float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.track(appID)
	tr.advance(t)
	tr.curPre = n
}

// AddWaste records nodeSeconds of wasted computation for appID
// (e.g. a PSA killing in-progress tasks, §5.1.2).
func (r *Recorder) AddWaste(appID int, nodeSeconds float64) {
	if nodeSeconds < 0 {
		panic("metrics: negative waste")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.track(appID).waste += nodeSeconds
}

// IncCounter adds n occurrences of a fault-recovery event for appID.
func (r *Recorder) IncCounter(appID int, c Counter, n int) {
	if c >= numCounters {
		panic(fmt.Sprintf("metrics: unknown counter %d", c))
	}
	if n < 0 {
		panic("metrics: negative counter increment")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.track(appID).counts[c] += n
}

// Count returns the number of recorded occurrences of c for appID.
func (r *Recorder) Count(appID int, c Counter) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.track(appID).counts[c]
}

// TotalCount returns the occurrences of c summed over all applications.
func (r *Recorder) TotalCount(c Counter) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0
	for _, tr := range r.apps {
		s += tr.counts[c]
	}
	return s
}

// Totals returns every fault-recovery counter summed over all
// applications, keyed by Counter.String() — the shape an obs registry
// counter source expects.
func (r *Recorder) Totals() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, int(numCounters))
	for c := Counter(0); c < numCounters; c++ {
		s := int64(0)
		for _, tr := range r.apps {
			s += int64(tr.counts[c])
		}
		out[c.String()] = s
	}
	return out
}

// Area returns the node·seconds consumed by appID up to time t.
func (r *Recorder) Area(appID int, t float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.track(appID)
	tr.advance(t)
	return tr.area
}

// PreAllocArea returns the node·seconds pre-allocated by appID up to time t.
func (r *Recorder) PreAllocArea(appID int, t float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.track(appID)
	tr.advance(t)
	return tr.preArea
}

// Waste returns the node·seconds of wasted computation recorded for appID.
func (r *Recorder) Waste(appID int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.track(appID).waste
}

// MaxAlloc returns the peak allocation observed for appID.
func (r *Recorder) MaxAlloc(appID int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.track(appID).maxAlloc
}

// Current returns the allocation of appID as of the last SetAlloc.
func (r *Recorder) Current(appID int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.track(appID).cur
}

// TotalCurrent returns the allocation summed over all applications as of
// their last SetAlloc — on a per-shard recorder, the shard's current pool
// occupancy, the second load signal of the federation rebalancer.
func (r *Recorder) TotalCurrent() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0
	for _, tr := range r.apps {
		s += tr.cur
	}
	return s
}

// TotalArea returns the node·seconds consumed by all applications up to t.
// Applications are summed in ID order so the floating-point result is
// deterministic (map iteration order is not).
func (r *Recorder) TotalArea(t float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0.0
	for _, id := range r.sortedIDsLocked() {
		tr := r.apps[id]
		tr.advance(t)
		s += tr.area
	}
	return s
}

// TotalWaste returns the total recorded waste across applications, summed
// in ID order for deterministic rounding.
func (r *Recorder) TotalWaste() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0.0
	for _, id := range r.sortedIDsLocked() {
		s += r.apps[id].waste
	}
	return s
}

// sortedIDsLocked returns the tracked application IDs in ascending order.
func (r *Recorder) sortedIDsLocked() []int {
	ids := make([]int, 0, len(r.apps))
	for id := range r.apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// UsedFraction returns the paper's "percent of used resources" (§5.3) as a
// fraction in [0,1]: resources allocated to applications minus the waste,
// relative to capacity × horizon.
func (r *Recorder) UsedFraction(capacity int, horizon float64) float64 {
	if capacity <= 0 || horizon <= 0 {
		return 0
	}
	used := r.TotalArea(horizon) - r.TotalWaste()
	if used < 0 {
		used = 0
	}
	return used / (float64(capacity) * horizon)
}

// Apps returns the IDs with recorded activity, sorted.
func (r *Recorder) Apps() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.apps))
	for id := range r.apps {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// AccountingReport summarizes one application for the accounting extension:
// how much it used versus how much it reserved.
type AccountingReport struct {
	AppID        int
	UsedArea     float64 // node·s effectively allocated
	PreAllocArea float64 // node·s reserved via pre-allocations
	Waste        float64 // node·s wasted by kills
}

// Aggregate is a read-only registry over several recorders — one per
// scheduler shard in a federated RMS (internal/federation), plus optionally
// a client-side recorder for application-reported waste. Shards register
// allocations under the same federated application ID, and a cluster lives
// on exactly one shard, so summing across recorders reconstructs the
// single-RMS quantities exactly.
type Aggregate struct {
	recs []*Recorder
}

// NewAggregate builds an aggregate over the given recorders; nil entries
// are skipped.
func NewAggregate(recs ...*Recorder) *Aggregate {
	a := &Aggregate{}
	for _, r := range recs {
		if r != nil {
			a.recs = append(a.recs, r)
		}
	}
	return a
}

// Recorders returns the underlying recorders.
func (a *Aggregate) Recorders() []*Recorder { return a.recs }

// Area returns the node·seconds consumed by appID across all shards.
func (a *Aggregate) Area(appID int, t float64) float64 {
	s := 0.0
	for _, r := range a.recs {
		s += r.Area(appID, t)
	}
	return s
}

// PreAllocArea returns the node·seconds pre-allocated by appID across all
// shards.
func (a *Aggregate) PreAllocArea(appID int, t float64) float64 {
	s := 0.0
	for _, r := range a.recs {
		s += r.PreAllocArea(appID, t)
	}
	return s
}

// Waste returns the node·seconds of wasted computation recorded for appID
// across all shards.
func (a *Aggregate) Waste(appID int) float64 {
	s := 0.0
	for _, r := range a.recs {
		s += r.Waste(appID)
	}
	return s
}

// TotalArea returns the node·seconds consumed by all applications on all
// shards up to t.
func (a *Aggregate) TotalArea(t float64) float64 {
	s := 0.0
	for _, r := range a.recs {
		s += r.TotalArea(t)
	}
	return s
}

// TotalWaste returns the total recorded waste across all shards.
func (a *Aggregate) TotalWaste() float64 {
	s := 0.0
	for _, r := range a.recs {
		s += r.TotalWaste()
	}
	return s
}

// Count returns the occurrences of c for appID across all recorders.
func (a *Aggregate) Count(appID int, c Counter) int {
	s := 0
	for _, r := range a.recs {
		s += r.Count(appID, c)
	}
	return s
}

// TotalCount returns the occurrences of c across all recorders and
// applications.
func (a *Aggregate) TotalCount(c Counter) int {
	s := 0
	for _, r := range a.recs {
		s += r.TotalCount(c)
	}
	return s
}

// UsedFraction returns the §5.3 "percent of used resources" over the whole
// federation: capacity is the federated node count.
func (a *Aggregate) UsedFraction(capacity int, horizon float64) float64 {
	if capacity <= 0 || horizon <= 0 {
		return 0
	}
	used := a.TotalArea(horizon) - a.TotalWaste()
	if used < 0 {
		used = 0
	}
	return used / (float64(capacity) * horizon)
}

// Apps returns the union of application IDs with recorded activity, sorted.
func (a *Aggregate) Apps() []int {
	seen := map[int]bool{}
	for _, r := range a.recs {
		for _, id := range r.Apps() {
			seen[id] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Report produces per-application accounting up to time t.
func (r *Recorder) Report(t float64) []AccountingReport {
	ids := r.Apps()
	out := make([]AccountingReport, 0, len(ids))
	for _, id := range ids {
		out = append(out, AccountingReport{
			AppID:        id,
			UsedArea:     r.Area(id, t),
			PreAllocArea: r.PreAllocArea(id, t),
			Waste:        r.Waste(id),
		})
	}
	return out
}
