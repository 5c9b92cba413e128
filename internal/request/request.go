// Package request implements the CooRMv2 request model (§3.1.1–3.1.2 and
// §A.1–A.2): request types (pre-allocation, non-preemptible, preemptible),
// inter-request constraints (FREE, COALLOC, NEXT), and request sets that
// form constraint forests.
package request

import (
	"fmt"
	"math"

	"coormv2/internal/view"
)

// Type is the request type of §3.1.1.
type Type uint8

const (
	// PreAlloc marks resources for possible future usage; no node IDs are
	// associated with it. Non-preemptible requests are served inside it.
	PreAlloc Type = iota
	// NonPreempt asks for an allocation that, once started, cannot be
	// interrupted by the RMS (run-to-completion, the default in most RMSs).
	NonPreempt
	// Preempt asks for an allocation that the RMS may reclaim at any time,
	// similar to OAR's best-effort jobs.
	Preempt
)

// String returns the paper's notation for the type: PA, ¬P or P.
func (t Type) String() string {
	switch t {
	case PreAlloc:
		return "PA"
	case NonPreempt:
		return "¬P"
	case Preempt:
		return "P"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Relation is the relatedHow constraint of §3.1.2.
type Relation uint8

const (
	// Free means the request is unconstrained; relatedTo is ignored.
	Free Relation = iota
	// Coalloc means the request must start at the same time as relatedTo.
	Coalloc
	// Next means the request must start immediately after relatedTo ends,
	// sharing common resources with it (node IDs carry over).
	Next
)

// String returns the paper's name for the relation.
func (r Relation) String() string {
	switch r {
	case Free:
		return "FREE"
	case Coalloc:
		return "COALLOC"
	case Next:
		return "NEXT"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// ID identifies a request: request() returns it, done() and every
// notification quote it (§3.1.3). The Federator draws it for all of its
// shards, and a request keeps it across replay and migration.
type ID int64

// Request is a resource request as stored inside the RMS (§A.1). The first
// group of fields is sent by the application; the second group is set by the
// scheduler while computing a schedule; the third group records the
// allocation once the request has started.
type Request struct {
	// Seq is the admitting server's admission sequence number. Only
	// orderings read it: the last tie-break of the scheduler's start order
	// and the newest-first pick among a tenant's quota-preemption victims.
	// It equals the ID on a server that draws its own IDs (New sets it so); a
	// server admitting under caller-supplied IDs stamps its own sequence.
	Seq int64

	// Application-provided attributes.
	ID         ID
	AppID      int
	Cluster    view.ClusterID
	N          int     // requested node-count
	Duration   float64 // requested duration in seconds; may be +Inf
	Type       Type
	RelatedHow Relation
	RelatedTo  *Request // parent request; nil when RelatedHow == Free

	// Scheduler-set attributes (recomputed every scheduling round).
	NAlloc             int     // node-count that will effectively be allocated
	ScheduledAt        float64 // computed start time
	Fixed              bool    // start time can no longer be chosen by the RMS
	EarliestScheduleAt float64 // lower bound used by fit()'s convergence loop

	// Reservation attributes. A held request participates in scheduling
	// like any pending request — it reserves capacity in the CBF/eqSchedule
	// window — but the RMS never starts it: a two-phase coordinator owns it
	// and either commits (clears Held) or releases it. NotBefore is a
	// persistent lower bound on the start time that survives fit()'s
	// per-round reset of EarliestScheduleAt; the coordinator uses it to
	// align legs of a cross-shard gang. Both are zero-valued for ordinary
	// requests.
	Held      bool
	NotBefore float64

	// Post-start attributes.
	StartedAt float64 // NaN until the request starts
	NodeIDs   []int   // node IDs allocated to this request (empty for PA)
	Finished  bool    // done() was called on a started request

	// SubmittedAt records when the RMS admitted the request — the basis
	// of the observability layer's admit→start wait metric. NaN until the
	// RMS stamps it on accept; cluster migrations carry it across shards
	// so waits survive a re-homing.
	SubmittedAt float64

	// Wrapped records that this non-preemptible request could not be served
	// from one of its application's pre-allocations and was implicitly
	// wrapped in a pre-allocation of the same size (§3.2). The scheduler
	// recomputes it for pending requests every round; it is sticky once the
	// request starts.
	Wrapped bool
}

// New creates a request with the given application-provided attributes.
// StartedAt is initialized to NaN ("has not started", §A.1).
func New(id ID, appID int, cid view.ClusterID, n int, duration float64, typ Type, how Relation, parent *Request) *Request {
	return &Request{
		Seq:         int64(id),
		ID:          id,
		AppID:       appID,
		Cluster:     cid,
		N:           n,
		Duration:    duration,
		Type:        typ,
		RelatedHow:  how,
		RelatedTo:   parent,
		ScheduledAt: math.Inf(1),
		StartedAt:   math.NaN(),
		SubmittedAt: math.NaN(),
	}
}

// Started reports whether the request has started (the paper's started(r)).
func (r *Request) Started() bool { return !math.IsNaN(r.StartedAt) }

// Active reports whether the request has started and not yet finished.
func (r *Request) Active() bool { return r.Started() && !r.Finished }

// End returns the request's end time if started (StartedAt + Duration),
// otherwise its scheduled end (ScheduledAt + Duration).
func (r *Request) End() float64 {
	if r.Started() {
		return r.StartedAt + r.Duration
	}
	return r.ScheduledAt + r.Duration
}

// Ended reports whether the request's allocation is over at time now: either
// done() was called on it, or its duration elapsed.
func (r *Request) Ended(now float64) bool {
	if r.Finished {
		return true
	}
	return r.Started() && r.End() <= now
}

// Validate checks the application-provided attributes. The original
// implementation left invalid requests as undefined behaviour (§A.6); we
// reject them at submission instead.
func (r *Request) Validate() error {
	if r.N <= 0 {
		return fmt.Errorf("request %d: node-count must be positive, got %d", r.ID, r.N)
	}
	if r.Duration <= 0 {
		return fmt.Errorf("request %d: duration must be positive, got %v", r.ID, r.Duration)
	}
	if math.IsNaN(r.Duration) {
		return fmt.Errorf("request %d: duration is NaN", r.ID)
	}
	if r.Cluster == "" {
		return fmt.Errorf("request %d: empty cluster ID", r.ID)
	}
	if r.RelatedHow != Free && r.RelatedTo == nil {
		return fmt.Errorf("request %d: %s constraint without a related request", r.ID, r.RelatedHow)
	}
	if r.RelatedTo != nil && r.RelatedTo.AppID != r.AppID {
		return fmt.Errorf("request %d: related request belongs to another application", r.ID)
	}
	if r.RelatedTo == r {
		return fmt.Errorf("request %d: related to itself", r.ID)
	}
	return nil
}

// String renders the request compactly for logs and test failures.
func (r *Request) String() string {
	rel := ""
	if r.RelatedHow != Free && r.RelatedTo != nil {
		rel = fmt.Sprintf(" %s(%d)", r.RelatedHow, r.RelatedTo.ID)
	}
	return fmt.Sprintf("req{%d app=%d %s n=%d dur=%g cid=%s%s}", r.ID, r.AppID, r.Type, r.N, r.Duration, r.Cluster, rel)
}

// Set is an ordered collection of requests of a single type belonging to one
// application (§A.2: the RMS stores, per application, separate sets for PA,
// non-preemptible and preemptible requests). Requests and their constraints
// form a forest inside the set.
type Set struct {
	reqs []*Request
}

// NewSet returns an empty request set.
func NewSet() *Set { return &Set{} }

// Add appends a request to the set.
func (s *Set) Add(r *Request) { s.reqs = append(s.reqs, r) }

// Remove deletes a request from the set, preserving order.
// It returns true if the request was present.
func (s *Set) Remove(r *Request) bool {
	for i, q := range s.reqs {
		if q == r {
			s.reqs = append(s.reqs[:i], s.reqs[i+1:]...)
			return true
		}
	}
	return false
}

// Contains reports whether r is a member of the set.
func (s *Set) Contains(r *Request) bool {
	for _, q := range s.reqs {
		if q == r {
			return true
		}
	}
	return false
}

// Len returns the number of requests in the set.
func (s *Set) Len() int { return len(s.reqs) }

// All returns the requests in insertion order. The returned slice is shared;
// callers must not modify it.
func (s *Set) All() []*Request { return s.reqs }

// ByID returns the request with the given ID, or nil.
func (s *Set) ByID(id ID) *Request {
	for _, r := range s.reqs {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// IsRoot reports whether r is the root of a constraint tree within the set
// (§A.2): unconstrained, or related to a request outside the set.
func (s *Set) IsRoot(r *Request) bool {
	return r.RelatedHow == Free || r.RelatedTo == nil || !s.Contains(r.RelatedTo)
}

// EachChild calls fn for every request in the set that is constrained to r
// (§A.2), in insertion order, without allocating.
func (s *Set) EachChild(r *Request, fn func(*Request)) {
	for _, q := range s.reqs {
		if q.RelatedTo == r && q.RelatedHow != Free {
			fn(q)
		}
	}
}

// GC removes requests whose allocation is over at time now and that no
// pending request is constrained to. Keeping a finished request around is
// harmless (its rectangle lies entirely in the past), but sets would grow
// without bound in long-running sessions. When reaped is non-nil it is
// called, in set order, for every removed request — the RMS forwards the
// IDs to routing layers so they can prune their request tables in lockstep.
func (s *Set) GC(now float64, reaped func(*Request)) {
	needed := map[*Request]bool{}
	for _, r := range s.reqs {
		if !r.Ended(now) && r.RelatedTo != nil {
			needed[r.RelatedTo] = true
		}
	}
	kept := s.reqs[:0]
	for _, r := range s.reqs {
		if r.Ended(now) && !needed[r] {
			if reaped != nil {
				reaped(r)
			}
			continue
		}
		kept = append(kept, r)
	}
	// Zero the tail so removed requests can be collected.
	for i := len(kept); i < len(s.reqs); i++ {
		s.reqs[i] = nil
	}
	s.reqs = kept
}
