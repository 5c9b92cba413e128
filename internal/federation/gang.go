package federation

import (
	"math"

	"coormv2/internal/clock"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// Cross-shard gang scheduling: two-phase reservations.
//
// When a request relates (NEXT/COALLOC) to a request living on another
// shard, no single rms.Server can place both legs — the relation would have
// to cross the shard boundary. Instead the session runs a small reservation
// coordinator per gang:
//
//  1. Hold.   The child leg is admitted on its shard as a *hold*
//     (rms.Session.HoldID): it reserves capacity in the shard's
//     CBF/eqSchedule window exactly like a pending request, but the shard
//     never starts it. Shard-locally the leg is unrelated — the NEXT/COALLOC
//     relation lives only in the session's record of the spec — so a hold never entangles
//     its cluster with the parent's: committed gangs stay migratable.
//
//  2. Align.  Every reservation interval the coordinator re-reads the
//     parent's schedule, pins the child at the implied target
//     (SetNotBefore: parent start for COALLOC, parent end for NEXT), runs a
//     synchronous round on the child's shard, and compares. If the child
//     cannot make the slot and the parent is still movable, the parent is
//     delayed to the child's achievable time — fit()'s parent-delay rule
//     (Algorithm 2), re-enacted across the shard boundary. The exchange is
//     monotone (floors only ever rise toward a common free window), bounded
//     by maxGangAligns.
//
//  3. Commit / abort.  When the legs line up — or the parent became
//     unmovable (started), or the align budget is spent with both legs
//     individually placeable — the hold is committed atomically
//     (CommitHold) and the child becomes an ordinary pending request, its
//     floor preserving the alignment. If the child leg cannot fit at all
//     (+Inf schedule: the cluster is too small, clipped, or shrunk by node
//     failures), the hold is *released* — reserved capacity returned, no
//     application-visible event — and re-placed after an exponential
//     backoff, up to maxGangRetries times; then the gang is aborted and the
//     child dropped (reap-without-finish, like a replay cascade drop).
//
// Every transition runs under f.topoMu, serializing the hold→commit window
// against CrashShard / RestartShard / MigrateCluster; the window itself
// spans at least one reservation interval, so those faults can — and in the
// chaos tests do — land inside it. Crash handling lives in absorbCrash
// (holds are requeued or aborted, never kill a session: no live allocation
// ever ran behind a hold) and replayQueue (re-places holds after restarts);
// every hold, first or repeated, is admitted by Session.place (session.go).
const (
	// maxGangAligns bounds the parent-delay ping-pong. The exchange is
	// monotone, so exhaustion means both legs fit individually but no common
	// window emerged yet; the gang is then committed at the best alignment
	// reached (the child's floor still guarantees parent-target ≤ child
	// start).
	maxGangAligns = 6
	// maxGangRetries bounds release→re-place cycles for a child leg that
	// cannot fit at all. Retries back off exponentially on the reservation
	// interval, giving node recovery a chance to restore capacity.
	maxGangRetries = 3
	// gangEps absorbs float noise when comparing the child's landed time
	// against the parent's target.
	gangEps = 1e-9
)

// evalGang action verdicts (decided under sess.mu, executed with no lock).
const (
	gangWait = iota
	gangAlign
	gangCommit
	gangDropOrphan
)

// gangState is the coordinator's record of one in-flight reservation, hung
// off the child's record (fedReq.gang). It exists while that record is
// a hold — held, released, or queued behind a crashed shard — and never
// on a placed one; commit and abort both detach it.
type gangState struct {
	parent request.ID       // the related leg
	how    request.Relation // Next or Coalloc
	// placedAt stamps the first hold placement; the fed.gang_reserve_seconds
	// histogram measures hold→commit/abort from it.
	placedAt float64
	aligns   int
	retries  int
	// parentDone / parentStarted memoize terminal parent states observed by
	// the handler fan-in or the evaluation loop: once the parent's mapping
	// is reaped the session cannot distinguish "finished" from "dropped"
	// anymore, and the two demand opposite outcomes (commit vs cascade).
	parentDone    bool
	parentStarted bool
	timer         clock.Timer
}

// gangTarget derives the child's start-time floor from the parent's current
// schedule: its start for COALLOC, its end for NEXT. An unschedulable or
// finished parent yields no floor (the evaluation loop decides what that
// means; a zero floor never constrains).
func gangTarget(how request.Relation, info rms.HoldInfo) float64 {
	if info.Finished {
		return 0
	}
	t := info.ScheduledAt // StartedAt when started
	if math.IsInf(t, 1) {
		return 0
	}
	if how == request.Next {
		return t + info.Duration
	}
	return t
}

// unrelated strips the relation from a gang child's spec: shard-locally the
// leg is unrelated, the coordinator enforces the relation.
func unrelated(spec rms.RequestSpec) rms.RequestSpec {
	spec.RelatedHow, spec.RelatedTo = request.Free, 0
	return spec
}

// armGangLocked (re-)arms the evaluation timer of fid's gang. Caller holds
// sess.mu.
func (s *Session) armGangLocked(fid request.ID, g *gangState, d float64) {
	if g.timer != nil {
		g.timer.Stop()
	}
	g.timer = s.f.clk.AfterFunc(d, "fed.gang", func() { s.evalGang(fid) })
}

// rearmGang re-arms the evaluation one interval out, if the gang still
// exists. Called with no lock held.
func (s *Session) rearmGang(fid request.ID, g *gangState) {
	s.mu.Lock()
	if e := s.reqs[fid]; !s.killed && e != nil && e.gang == g {
		s.armGangLocked(fid, g, s.f.reschedInterval)
	}
	s.mu.Unlock()
}

// clearGang discards a record's reservation (timer included) and leaves the
// record where it is. Caller holds sess.mu.
func clearGang(e *fedReq) {
	if g := e.gang; g != nil {
		if g.timer != nil {
			g.timer.Stop()
			g.timer = nil
		}
		e.gang = nil
	}
}

// forgetLocked removes a record, and the reservation on it, from the table;
// it reports whether there was one. Caller holds sess.mu.
func (s *Session) forgetLocked(fid request.ID) bool {
	e := s.reqs[fid]
	if e != nil {
		clearGang(e)
		delete(s.reqs, fid)
	}
	return e != nil
}

// noteGangParentLocked memoizes a parent-side event (started or finished)
// on every gang whose parent is fid. Caller holds sess.mu.
func (s *Session) noteGangParentLocked(fid request.ID, done bool) {
	for _, e := range s.reqs {
		g := e.gang
		if g == nil || g.parent != fid {
			continue
		}
		if done {
			g.parentDone = true
		} else {
			g.parentStarted = true
		}
	}
}

// evalGang is one turn of the reservation state machine, fired by the gang's
// timer. It runs under f.topoMu, so the decision it takes cannot interleave
// with a crash, restart, or migration — exactly the serialization
// CheckInvariants relies on.
func (s *Session) evalGang(fid request.ID) {
	f := s.f
	f.topoMu.Lock()
	defer f.topoMu.Unlock()

	s.mu.Lock()
	e := s.reqs[fid]
	if e == nil || e.gang == nil {
		s.mu.Unlock()
		return
	}
	g := e.gang
	g.timer = nil
	if s.killed || e.state == placed {
		clearGang(e)
		s.mu.Unlock()
		return
	}
	switch e.state {
	case queued:
		// The child shard is down: the crash machinery owns the entry and
		// replayQueue re-places the hold and re-arms the evaluation.
		s.mu.Unlock()
		return
	case released:
		// The retry backoff elapsed: re-place the hold (place re-arms the
		// evaluation), or abort the gang if the shard now rejects it.
		sub := s.subs[e.shard]
		s.mu.Unlock()
		if sub == nil {
			s.rearmGang(fid, g)
		} else if _, err := s.place(fid, e, sub, 0); err != nil {
			s.dropGang(fid, g)
		}
		return
	}
	childShard := e.shard
	childSub := s.subs[childShard]
	pe := s.reqs[g.parent]
	if pe != nil {
		if pe.done {
			g.parentDone = true
		}
		if pe.started {
			g.parentStarted = true
		}
	}
	action := gangWait
	var (
		target      float64
		unmovable   bool
		parentShard int
		parentSub   *rms.Session
		parentDur   float64
	)
	switch {
	case childSub == nil:
		// Defensive only: crash sweeps run under topoMu, so a nil sub with a
		// live (non-queued) mapping should not be observable here.
	case pe == nil:
		if g.parentDone || g.parentStarted {
			// The parent ran (and was reaped): a NEXT constraint is
			// trivially satisfied, a COALLOC one moot. Commit.
			action = gangCommit
		} else {
			// The parent was dropped before ever running: cascade, mirroring
			// the single-RMS replay semantics for orphaned children.
			action = gangDropOrphan
		}
	case pe.state == queued:
		// The parent's shard is down; wait for its replay.
	case pe.done:
		action = gangCommit
	case pe.started:
		if g.how == request.Coalloc {
			// The parent already started without us: co-allocation degrades
			// to start-as-soon-as-possible. Commit now.
			action = gangCommit
		} else {
			// NEXT behind a running parent: the handover instant is fixed.
			target = pe.startedAt + pe.spec.Duration
			unmovable = true
			action = gangAlign
		}
	default:
		parentShard = pe.shard
		parentSub = s.subs[parentShard]
		parentDur = pe.spec.Duration
		if parentSub != nil && pe.state != released {
			action = gangAlign
		}
	}
	how, parent := g.how, g.parent
	s.mu.Unlock()

	switch action {
	case gangWait:
		s.rearmGang(fid, g)
		return
	case gangCommit:
		s.commitGang(fid, g, childSub)
		return
	case gangDropOrphan:
		if childSub != nil {
			_ = childSub.ReleaseHold(fid)
		}
		s.dropGang(fid, g)
		return
	}

	// Alignment turn: pin the child at the parent's target, run a synchronous
	// round on its shard, and see where it lands.
	if parentSub != nil {
		info, err := parentSub.ScheduleInfo(parent)
		if err != nil {
			// The parent vanished mid-decision (unreachable under topoMu in
			// the simulator); the memo updated by the handler fan-in settles
			// it next turn.
			s.rearmGang(fid, g)
			return
		}
		if info.Started || info.Finished {
			unmovable = true
		}
		if math.IsInf(info.ScheduledAt, 1) && !info.Started && !info.Finished {
			// The parent leg itself is unschedulable on its own shard:
			// release this leg and retry with backoff — the parent's shard
			// (node recovery, load drain) may change.
			s.retryGang(fid, g, childSub)
			return
		}
		target = gangTarget(how, info)
	}
	if err := childSub.SetNotBefore(fid, target); err != nil {
		s.rearmGang(fid, g)
		return
	}
	f.shards[childShard].ScheduleNow()
	cinfo, err := childSub.ScheduleInfo(fid)
	if err != nil {
		s.rearmGang(fid, g)
		return
	}
	if math.IsInf(cinfo.ScheduledAt, 1) {
		// The child leg cannot fit at all: two-phase abort path — release
		// the reserved capacity and retry after backoff.
		s.retryGang(fid, g, childSub)
		return
	}
	if unmovable || cinfo.ScheduledAt <= target+gangEps {
		s.commitGang(fid, g, childSub)
		return
	}
	// The child cannot make the parent's slot. Delay the still-movable
	// parent to the child's achievable time (the cross-shard enactment of
	// fit()'s parent-delay rule) and re-evaluate next interval.
	s.mu.Lock()
	g.aligns++
	exhausted := g.aligns > maxGangAligns
	s.mu.Unlock()
	if exhausted || parentSub == nil {
		s.commitGang(fid, g, childSub)
		return
	}
	pt := cinfo.ScheduledAt
	if how == request.Next {
		pt = cinfo.ScheduledAt - parentDur
	}
	if pt < 0 {
		pt = 0
	}
	if err := parentSub.SetNotBefore(parent, pt); err == nil {
		f.shards[parentShard].ScheduleNow()
	}
	s.rearmGang(fid, g)
}

// commitGang converts the hold into an ordinary pending request — the point
// of no return for the gang — and retires the coordinator state.
func (s *Session) commitGang(fid request.ID, g *gangState, childSub *rms.Session) {
	committed := childSub != nil && childSub.CommitHold(fid) == nil
	s.mu.Lock()
	if e := s.reqs[fid]; e != nil {
		if committed {
			e.state = placed
		}
		clearGang(e)
	}
	s.mu.Unlock()
	if !committed {
		// The hold vanished under us (session torn down mid-turn under a
		// real clock); the crash/teardown machinery owns the mapping.
		return
	}
	f := s.f
	f.stats.gangCommitted.Add(1)
	if f.obsReg != nil {
		now := f.clk.Now()
		f.hGang.Record(now - g.placedAt)
		f.obsReg.Event(obs.Event{Time: now, Type: obs.EvGangCommit, App: s.id, Request: int(fid), Value: now - g.placedAt})
	}
}

// retryGang releases the child's hold (its leg cannot fit right now) and
// schedules a re-placement after an exponential backoff — or aborts the
// gang once the retry budget is spent.
func (s *Session) retryGang(fid request.ID, g *gangState, childSub *rms.Session) {
	_ = childSub.ReleaseHold(fid)
	s.mu.Lock()
	if e := s.reqs[fid]; e != nil {
		e.state = released // no shard-side presence until re-placement
	}
	g.retries++
	spent := g.retries > maxGangRetries
	if !spent && !s.killed {
		s.armGangLocked(fid, g, s.f.reschedInterval*float64(int(1)<<g.retries))
	}
	s.mu.Unlock()
	if spent {
		s.dropGang(fid, g)
		return
	}
	s.f.stats.gangRetried.Add(1)
}

// dropGang aborts the reservation for good: the child is dropped — the
// application sees a reap without finish, the same signal a replay cascade
// drop delivers — and the abort is counted. The child's shard-side hold, if
// any, must already be released.
func (s *Session) dropGang(fid request.ID, g *gangState) {
	if !s.drop(fid) {
		return
	}
	f := s.f
	f.stats.gangAborted.Add(1)
	if f.obsReg != nil {
		now := f.clk.Now()
		f.obsReg.Event(obs.Event{Time: now, Type: obs.EvGangAbort, App: s.id, Request: int(fid), Value: now - g.placedAt})
	}
}

// rehomeDetachedHolds re-points released-but-not-yet-re-placed holds whose
// target cluster just migrated: they have no shard-side request for the
// snapshot to carry, so the attach hook never sees them. Called by
// MigrateCluster under topoMu.
func (s *Session) rehomeDetachedHolds(cid view.ClusterID, to int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.reqs {
		if e.state == released && e.spec.Cluster == cid {
			e.shard = to
		}
	}
}
