package rms

import (
	"fmt"
	"math"

	"coormv2/internal/request"
)

// Two-phase reservation support. A *hold* is a request admitted into the
// scheduler like any other pending request — it reserves capacity in the
// CBF/eqSchedule window from the moment it is placed — but the RMS never
// starts it: appendToStart and the wake-up scan skip Held requests. A
// reservation coordinator (internal/federation's gang machinery) owns the
// hold and either commits it (CommitHold — the request becomes an ordinary
// pending request and starts when its slot arrives) or releases it
// (ReleaseHold — the capacity is returned with no application-visible
// notification; the coordinator is responsible for its own routing tables).
//
// Holds deliberately reuse the pending-request machinery: they are carried
// by ClusterSnapshot across migrations, participate in incremental
// dirty-tracking (a held request is never Fixed, so its application is
// never settled: its CBF step is kept only until the earliest start fit gave
// its pending requests, its preemptible occupancy is recomputed every round,
// and cached artifacts stay byte-identical with the full-recompute mode),
// and are checked by CheckInvariants (held ⇒ never started, no node IDs).

// HoldInfo is a point-in-time snapshot of one request's scheduling state,
// used by reservation coordinators to decide commit vs re-align vs abort.
type HoldInfo struct {
	ScheduledAt float64 // +Inf when unschedulable
	Duration    float64
	Started     bool
	Finished    bool
	Held        bool
	NotBefore   float64
}

// HoldID admits a tentative hold under the coordinator's ID: a request that
// reserves schedule capacity no earlier than notBefore but can never start.
// ID and observe are as for RequestID; a floor needs a FREE spec.
func (sess *Session) HoldID(spec RequestSpec, id request.ID, notBefore float64, observe func()) error {
	if id <= 0 {
		return fmt.Errorf("rms: request ID %d must be positive", id)
	}
	return sess.admit(spec, id, true, notBefore, observe)
}

// liveRequestLocked looks up one of the session's requests for the
// operations below: it fails on a terminated session or an unknown ID, and —
// when held is set — on a request that is not a hold.
func (sess *Session) liveRequestLocked(id request.ID, held bool) (*request.Request, error) {
	if sess.killed {
		return nil, fmt.Errorf("rms: session was terminated")
	}
	r := sess.findRequestLocked(id)
	if r == nil {
		return nil, errRequest(id, ReasonNotFound)
	}
	if held && !r.Held {
		return nil, errRequest(id, "not held")
	}
	return r, nil
}

// CommitHold converts a hold into an ordinary pending request: the reserved
// slot becomes a real scheduled start. The NotBefore floor is kept — the
// coordinator aligned it with the other legs of the gang.
func (sess *Session) CommitHold(id request.ID) error {
	s := sess.s
	s.mu.Lock()
	r, err := sess.liveRequestLocked(id, true)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	r.Held = false
	s.touchLocked(sess.app.ID)
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// ReleaseHold withdraws an uncommitted hold, returning its reserved capacity.
// Unlike Done on a pending request it is silent: no finish/reap notification
// reaches the handler, because the coordinator that placed the hold is the
// only party that knows about it and prunes its own tables synchronously
// (an abort must not look like a completed request to the application).
func (sess *Session) ReleaseHold(id request.ID) error {
	s := sess.s
	s.mu.Lock()
	r, err := sess.liveRequestLocked(id, true)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	sess.app.SetFor(r.Type).Remove(r)
	s.touchLocked(sess.app.ID)
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// reasonRelatedFloor refuses a NotBefore floor on a NEXT or COALLOC child,
// which the scheduler places by its parent (Algorithm 1, fit), not by a floor.
const reasonRelatedFloor = "cannot take a NotBefore floor: it is a relation child"

// SetNotBefore adjusts the persistent start-time floor of an unstarted FREE
// request — the cross-shard analogue of fit()'s parent delay: a reservation
// coordinator pins one leg so the other can align with it. The next round
// reschedules the request no earlier than t.
func (sess *Session) SetNotBefore(id request.ID, t float64) error {
	s := sess.s
	s.mu.Lock()
	r, err := sess.liveRequestLocked(id, false)
	if err == nil && r.Started() {
		err = errRequest(id, "already started")
	}
	if err == nil && r.RelatedHow != request.Free {
		err = errRequest(id, reasonRelatedFloor)
	}
	if err == nil && (math.IsNaN(t) || math.IsInf(t, 0)) {
		err = errRequest(id, "invalid NotBefore")
	}
	t = math.Max(t, 0)
	if err != nil || r.NotBefore == t {
		s.mu.Unlock()
		return err
	}
	r.NotBefore = t
	s.touchLocked(sess.app.ID)
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// ScheduleInfo reports the current scheduling state of a request. The
// reservation coordinator reads it after a synchronous round (ScheduleNow)
// to decide whether the legs of a gang line up.
func (sess *Session) ScheduleInfo(id request.ID) (HoldInfo, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := sess.liveRequestLocked(id, false)
	if err != nil {
		return HoldInfo{}, err
	}
	info := HoldInfo{
		ScheduledAt: r.ScheduledAt,
		Duration:    r.Duration,
		Started:     r.Started(),
		Finished:    r.Finished,
		Held:        r.Held,
		NotBefore:   r.NotBefore,
	}
	if r.Started() {
		info.ScheduledAt = r.StartedAt
	}
	return info, nil
}
