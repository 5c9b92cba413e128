// Package metrics accumulates the quantities reported in the paper's
// evaluation (§5): consumed resource areas (node·seconds), PSA waste
// (node·seconds lost to killed tasks), and the percentage of used resources.
//
// It also implements the accounting the paper lists as future work (§7):
// per-application pre-allocated area, so that an administrator can charge
// for reserved-but-unused resources and incentivize efficient usage.
package metrics

import (
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
	return usedFraction(r, capacity, horizon)
}

// usedFraction is the §5.3 formula over one recorder or an aggregate.
func usedFraction(m interface {
	TotalArea(t float64) float64
	TotalWaste() float64
}, capacity int, horizon float64) float64 {
	if capacity <= 0 || horizon <= 0 {
		return 0
	}
	return max(0, m.TotalArea(horizon)-m.TotalWaste()) / (float64(capacity) * horizon)
}

// Apps returns the IDs with recorded activity, sorted.
func (r *Recorder) Apps() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sortedIDsLocked()
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

// UsedFraction returns the §5.3 "percent of used resources" over the whole
// federation: capacity is the federated node count.
func (a *Aggregate) UsedFraction(capacity int, horizon float64) float64 {
	return usedFraction(a, capacity, horizon)
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
