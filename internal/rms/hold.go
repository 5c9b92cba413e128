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
// recomputed every round — cached artifacts stay byte-identical with the
// full-recompute mode), and are checked by CheckInvariants (held ⇒ never
// started, no node IDs).

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

// HoldObserved admits a tentative hold: a request that reserves schedule
// capacity no earlier than notBefore but can never start. Like
// RequestObserved, observe (when non-nil) runs with the server lock held so
// routing tables are in place before any round can reference the request.
func (sess *Session) HoldObserved(spec RequestSpec, notBefore float64, observe func(request.ID)) (request.ID, error) {
	s := sess.s
	s.mu.Lock()
	if sess.killed {
		s.mu.Unlock()
		return 0, fmt.Errorf("rms: session was terminated")
	}
	var parent *request.Request
	if spec.RelatedHow != request.Free {
		parent = sess.findRequestLocked(spec.RelatedTo)
		if parent == nil {
			s.mu.Unlock()
			return 0, errRelated(spec.RelatedTo, ReasonNotFound)
		}
	}
	if _, ok := s.cfg.Clusters[spec.Cluster]; !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w %q", ErrUnknownCluster, spec.Cluster)
	}
	id := s.nextReq
	s.nextReq++
	r := request.New(id, sess.app.ID, spec.Cluster, spec.N, spec.Duration, spec.Type, spec.RelatedHow, parent)
	if err := r.Validate(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	r.SubmittedAt = s.clk.Now()
	r.Held = true
	if notBefore > 0 && !math.IsNaN(notBefore) {
		r.NotBefore = notBefore
	}
	sess.app.SetFor(spec.Type).Add(r)
	s.touchLocked(sess.app.ID)
	s.churn[spec.Cluster]++
	if observe != nil {
		observe(id)
	}
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return id, nil
}

// CommitHold converts a hold into an ordinary pending request: the reserved
// slot becomes a real scheduled start. The NotBefore floor is kept — the
// coordinator aligned it with the other legs of the gang.
func (sess *Session) CommitHold(id request.ID) error {
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
	if !r.Held {
		s.mu.Unlock()
		return errRequest(id, "not held")
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
	if sess.killed {
		s.mu.Unlock()
		return fmt.Errorf("rms: session was terminated")
	}
	r := sess.findRequestLocked(id)
	if r == nil {
		s.mu.Unlock()
		return errRequest(id, ReasonNotFound)
	}
	if !r.Held {
		s.mu.Unlock()
		return errRequest(id, "not held")
	}
	sess.app.SetFor(r.Type).Remove(r)
	s.touchLocked(sess.app.ID)
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return nil
}

// SetNotBefore adjusts the persistent start-time floor of an unstarted
// request — the cross-shard analogue of fit()'s parent delay: a reservation
// coordinator pins one leg so the other can align with it. The next round
// reschedules the request no earlier than t.
func (sess *Session) SetNotBefore(id request.ID, t float64) error {
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
	if r.Started() {
		s.mu.Unlock()
		return errRequest(id, "already started")
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		s.mu.Unlock()
		return errRequest(id, "invalid NotBefore")
	}
	if t < 0 {
		t = 0
	}
	if r.NotBefore == t {
		s.mu.Unlock()
		return nil
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
	if sess.killed {
		return HoldInfo{}, fmt.Errorf("rms: session was terminated")
	}
	r := sess.findRequestLocked(id)
	if r == nil {
		return HoldInfo{}, errRequest(id, ReasonNotFound)
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
