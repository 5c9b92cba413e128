package federation

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// placement is the one state a request's record is in relative to its shard.
// Who moves it: place puts a record on its shard — placed, or held for a gang
// child — whether it is fresh (Request), queued (the shard restarted) or
// released (the hold's retry back-off ran out); commitGang turns held into
// placed; retryGang turns a hold that cannot fit into released; the crash
// sweep (absorbCrash) turns what the dead shard had into queued under
// RequeueOnCrash. A record leaves the table through the shard's reap, the
// crash sweep's purge, a withdraw (Done on a record that is nowhere) or drop.
type placement uint8

const (
	placed   placement = iota // on shard, under the same ID
	held                      // an uncommitted gang hold on shard (gang.go)
	released                  // gang child between release and re-placement: nowhere
	queued                    // awaiting shard's restart: nowhere
)

// nowhere reports whether a record in this state has no shard-side presence.
func (p placement) nowhere() bool { return p == released || p == queued }

// fedReq is the session's record of one request: which shard it belongs to
// (under the same ID), how it stands there, and enough of the original spec
// to replay it after a shard crash (RequeueOnCrash).
type fedReq struct {
	shard int
	spec  rms.RequestSpec
	state placement
	// gang is the in-flight cross-shard reservation of a gang child (see
	// gang.go). Non-nil only while the record is a hold: held, released, or
	// queued behind a crashed shard.
	gang *gangState
	// done marks a finished request (done() or expiry), as reported by the
	// shard's OnRequestFinished. Finished requests are never requeued.
	done bool
	// started/startedAt record the allocation's (latest) start: a
	// non-preemptible request whose full duration elapsed before a crash is
	// completed work — only the shard's end-of-round sweep died with the
	// shard — and must not be re-run.
	started   bool
	startedAt float64
}

// Session is one application's connection to the federation. It satisfies
// the same application-side surface as *rms.Session (AppID, Request, Done,
// Disconnect), so applications and the transport layer use the two
// interchangeably.
//
// Locking discipline: sess.mu protects the request table and view state
// and is never held while calling into a shard or into the application
// handler. Shard calls may synchronously flush notifications back into the
// shardHandler on the same goroutine, and application handlers may
// synchronously call back into the session — both safe because no session
// lock is held at those points. The one sanctioned nesting is shard lock →
// sess.mu, inside the RequestID/HoldID/AttachCluster observe hooks and inside
// handler fan-in; no code path acquires them in the opposite order.
//
// Admission to a shard (admitShard) is a topology transition: Connect and
// RestartShard run it under f.topoMu, so no crash, restart or second
// admission lands inside it. The handlers it flushes thus run under topoMu;
// a handler must stay on the session surface and never call Connect,
// MigrateCluster or CheckInvariants.
type Session struct {
	f  *Federator
	h  rms.AppHandler
	id int
	// connect holds the rms connect options (e.g. rms.WithTenant) the
	// application connected with. Immutable after Connect; admitShard
	// replays them on every admission, so a crash/restart re-admission
	// reconstructs the same tenant identity on the fresh shard.
	connect []rms.ConnectOption

	mu   sync.Mutex
	subs []*rms.Session // per-shard sub-sessions; nil while a shard is down
	// handlers holds the per-shard handler of the current admission (nil
	// while a shard is down): a push reaching an older one is dropped.
	handlers []*shardHandler
	// reqs records every request of the session by ID, and is the only
	// per-request structure: a shard's replay queue is its queued records in
	// ID order, a reservation hangs off its child's record. Entries are pruned
	// in lockstep with the shard's own request GC (OnRequestsReaped): once a
	// request is finished and has no pending NEXT/COALLOC child it can never
	// be referenced again.
	reqs   map[request.ID]*fedReq
	killed bool

	// segs holds the view segments (see rms.AppHandler.OnViews) not yet
	// handed to the application: shard pushes, forwarded untouched, and the
	// federation's own crash and migration segments. One deliverer at a time
	// (delivering) hands them over in order, one OnViews each, so a handler
	// never sees a segment before an older one.
	segs       [][2]view.View
	delivering bool
	// movedFrom maps a migrated cluster to the shard it last left: a push of
	// that shard's still naming it predates the detach (see queueLost).
	movedFrom map[view.ClusterID]int
}

// AppID returns the federated application ID (identical on every shard).
func (s *Session) AppID() int { return s.id }

// onShardLocked returns the record of a request shard reports about, or nil
// when the session has none placed there (already reaped, requeued by a crash
// sweep, or a released hold). Caller holds sess.mu.
func (s *Session) onShardLocked(shard int, id request.ID) *fedReq {
	if e := s.reqs[id]; e != nil && e.shard == shard && !e.state.nowhere() {
		return e
	}
	return nil
}

// Request routes the request() operation to the shard owning the target
// cluster and returns the request's ID. If that shard is down the
// outcome depends on the recovery policy: under RequeueOnCrash the request
// is queued and replayed when the shard restarts (the ID is returned
// immediately); under KillOnCrash it fails.
func (s *Session) Request(spec rms.RequestSpec) (request.ID, error) {
	shard, id, err := s.submit(spec, 0)
	if cid := s.racedCluster(spec, shard, err); cid != "" {
		// A live migration took the cluster, or the parent with it, from the
		// shard (real clock only): wait it out, submit once more under the ID.
		s.f.turn(cid, 1)
		defer s.f.turn(cid, -1)
		_, id, err = s.submit(spec, id)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// racedCluster names the cluster whose migration a request() refused on shard
// may have raced, or returns "": its own if the shard did not know it or no
// longer owns it, its parent's if the shard did not find a placed parent.
func (s *Session) racedCluster(spec rms.RequestSpec, shard int, err error) view.ClusterID {
	if err == nil {
		return ""
	}
	var re *rms.RequestError
	if errors.As(err, &re) && re.Related && re.Reason == rms.ReasonNotFound {
		s.mu.Lock()
		defer s.mu.Unlock()
		if pe := s.reqs[spec.RelatedTo]; pe != nil && !pe.state.nowhere() {
			return pe.spec.Cluster
		}
		return ""
	}
	if owner, ok := s.f.Owner(spec.Cluster); ok && (owner != shard || errors.Is(err, rms.ErrUnknownCluster)) {
		return spec.Cluster
	}
	return ""
}

// submit submits the request to the shard the owner table names under fid, or
// under an ID it draws once it gets that far. It returns the shard (-1: none)
// and the ID, also on failure: nothing holds the ID then, a retry reuses it.
func (s *Session) submit(spec rms.RequestSpec, fid request.ID) (int, request.ID, error) {
	shard, ok := s.f.Owner(spec.Cluster)
	if !ok {
		return -1, fid, fmt.Errorf("rms: unknown cluster %q", spec.Cluster)
	}
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return shard, fid, fmt.Errorf("rms: session was terminated")
	}
	sub := s.subs[shard]
	var parentSub *rms.Session // of a cross-shard parent that is on its shard
	if spec.RelatedHow != request.Free {
		pe, ok := s.reqs[spec.RelatedTo]
		if !ok {
			s.mu.Unlock()
			return shard, fid, &rms.RequestError{ID: spec.RelatedTo, Related: true, Node: -1, Reason: rms.ReasonNotFound}
		}
		switch {
		case pe.shard != shard:
			// The relation crosses a shard boundary: place admits the request
			// as a two-phase reservation (gang.go) instead of a shard-local
			// relation. The parent may even be queued for replay — the
			// reservation's evaluation loop waits it out.
			if !pe.state.nowhere() {
				parentSub = s.subs[pe.shard]
			}
		case pe.state == queued && sub != nil:
			// Transient real-clock window between a restart's re-admission
			// and its queue replay; inside the simulator it cannot occur.
			s.mu.Unlock()
			return shard, fid, fmt.Errorf("federation: related request %d is awaiting replay on shard %d", spec.RelatedTo, shard)
		}
	}
	s.mu.Unlock()

	if sub == nil && s.f.recovery != RequeueOnCrash {
		return shard, fid, fmt.Errorf("federation: shard %d is down", shard)
	}
	if fid == 0 {
		fid = s.f.nextRequestID()
	}
	if sub == nil {
		// Queue the spec for replay on restart. The ID is reserved now so the
		// application's bookkeeping works as usual.
		s.mu.Lock()
		if s.killed {
			s.mu.Unlock()
			return shard, fid, fmt.Errorf("rms: session was terminated")
		}
		if s.subs[shard] != nil {
			// The shard restarted (and drained its replay queue) between the
			// two critical sections — a real-clock-only window, like the
			// awaiting-replay guard above. Queueing now would strand the
			// request until the shard's next crash; fail transiently instead.
			s.mu.Unlock()
			return shard, fid, fmt.Errorf("federation: shard %d restarted mid-request; retry", shard)
		}
		s.reqs[fid] = &fedReq{shard: shard, spec: spec, state: queued}
		s.mu.Unlock()
		s.f.stats.requeuedRequests.Add(1)
		return shard, fid, nil
	}

	// Seed a reservation's floor from the parent's current schedule so the
	// very first round already reserves roughly the right window.
	notBefore := 0.0
	if parentSub != nil {
		if info, err := parentSub.ScheduleInfo(spec.RelatedTo); err == nil {
			notBefore = gangTarget(spec.RelatedHow, info)
		}
	}
	if _, err := s.place(fid, &fedReq{shard: shard, spec: spec}, sub, notBefore); err != nil {
		return shard, fid, err
	}
	return shard, fid, nil
}

// place admits record e on its shard under fid; it is the only admission
// path, called for a fresh request (e not in the table yet), for a queued
// one after the shard's restart and for a released hold after its back-off.
// A record with a reservation, or whose relation's parent belongs to another
// shard, goes in as a hold — shard-locally unrelated, floored at notBefore —
// and its reservation is created or re-armed; anything else as an ordinary
// request. Reports whether it placed a hold. On an error the shard holds
// nothing and e is as it was. Called with no lock held.
func (s *Session) place(fid request.ID, e *fedReq, sub *rms.Session, notBefore float64) (hold bool, err error) {
	s.mu.Lock()
	pe := s.reqs[e.spec.RelatedTo]
	crossShard := e.spec.RelatedHow != request.Free && pe != nil && pe.shard != e.shard
	st := placed
	if crossShard || e.gang != nil {
		st = held
	}
	s.mu.Unlock()
	// install runs under the shard's lock, before any scheduling round can
	// start or report the request, so the handler fan-in always finds the
	// record in the state the shard has it in.
	install := func() {
		s.mu.Lock()
		e.state = st
		s.reqs[fid] = e
		s.mu.Unlock()
	}
	if st == placed {
		return false, sub.RequestID(e.spec, fid, install)
	}
	if err := sub.HoldID(unrelated(e.spec), fid, notBefore, install); err != nil {
		return true, err
	}
	s.mu.Lock()
	if !s.killed {
		if e.gang == nil {
			e.gang = &gangState{parent: e.spec.RelatedTo, how: e.spec.RelatedHow, placedAt: s.f.clk.Now()}
		}
		s.armGangLocked(fid, e.gang, s.f.reschedInterval)
	}
	s.mu.Unlock()
	return true, nil
}

// drop discards a record that will never reach a shard (again) — a failed
// replay, an orphaned child, an aborted reservation: reservation state and
// table entry go, the loss is counted, and an observer handler sees a reap
// without a preceding finish (a killed session has nobody left to tell).
// Reports whether there was a record to drop. Called with no lock held.
func (s *Session) drop(fid request.ID) bool {
	s.mu.Lock()
	killed := s.killed
	ok := s.forgetLocked(fid)
	s.mu.Unlock()
	if ok {
		s.f.stats.droppedRequests.Add(1)
		if !killed {
			s.notifyDropped(fid)
		}
	}
	return ok
}

// Done routes the done() operation to the shard holding the request. done()
// on a request that is nowhere — queued for replay, or a released hold in its
// retry back-off — withdraws it federation-side.
func (s *Session) Done(id request.ID, released []int) error {
	cid, err := s.done(id, released)
	if cid == "" {
		return err
	}
	// Not found: a live migration may have taken it (real clock only).
	s.f.turn(cid, 1)
	defer s.f.turn(cid, -1)
	_, err = s.done(id, released)
	return err
}

// done routes done() once; it returns the cluster of a request not found.
func (s *Session) done(id request.ID, released []int) (view.ClusterID, error) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return "", fmt.Errorf("rms: session was terminated")
	}
	e, ok := s.reqs[id]
	if !ok {
		s.mu.Unlock()
		return "", &rms.RequestError{ID: id, Node: -1, Reason: rms.ReasonNotFound}
	}
	if e.state.nowhere() {
		// The request is not on a shard; withdrawing it is purely a
		// federation-side affair. A voluntary withdraw is not lost work, so
		// it delivers the finish+reap pair exactly like a single RMS does for
		// a pending-request Done — only recovery drops use the
		// reap-without-finish signal.
		s.forgetLocked(id)               // a withdrawn gang child needs no reservation
		s.noteGangParentLocked(id, true) // a withdraw delivers a finish: NEXT is satisfied
		s.mu.Unlock()
		s.f.stats.droppedRequests.Add(1)
		s.notifyRetired([]request.ID{id}, []request.ID{id})
		return "", nil
	}
	shard, cid := e.shard, e.spec.Cluster
	sub := s.subs[shard]
	s.mu.Unlock()
	if sub == nil {
		// Unreachable in the simulator: a crash either queued or purged
		// every mapping on the dead shard. Real-clock race fallback.
		return "", fmt.Errorf("federation: shard %d is down", shard)
	}
	err := sub.Done(id, released)
	var re *rms.RequestError
	if errors.As(err, &re) && re.Reason == rms.ReasonNotFound {
		return cid, err
	}
	return "", err
}

// Disconnect ends the session cleanly on every running shard.
func (s *Session) Disconnect() { s.teardown("") }

// teardown is the single session-teardown path, shared by Disconnect, the
// crash sweep under KillOnCrash, and a shard-originated kill: it marks the
// session killed exactly once, disconnects every live sub-session (a no-op
// on the shard that initiated a kill — its side is already down), and
// forgets the session federation-side. A non-empty reason also delivers
// OnKill to the application.
func (s *Session) teardown(reason string) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	// Reservation timers die with the session; a racing evalGang fire sees
	// a record without a reservation and bails.
	for _, e := range s.reqs {
		clearGang(e)
	}
	subs := append([]*rms.Session(nil), s.subs...)
	s.mu.Unlock()
	for _, sub := range subs {
		if sub != nil {
			sub.Disconnect()
		}
	}
	s.f.removeSession(s.id)
	if reason != "" {
		s.h.OnKill(reason)
	}
}

// absorbCrash updates the session's tables for a crashed shard and reports
// what happened: affected is true when live scheduler-side state was lost
// (the KillOnCrash trigger), requeued counts requests moved to the replay
// queue, purged counts finished mappings discarded with the shard, and
// ended lists requests whose allocation had already run out its full
// duration when the shard died — completed work the shard's end-of-round
// sweep never got to record — and reaped lists every purged mapping (the
// ended ones plus requests that had finished earlier but were never
// GC-reaped by the dead shard). gangsAborted counts cross-shard
// reservations whose held leg died with the shard and was not requeued
// (their drops ride in reaped). The caller delivers the corresponding
// observer notifications (and the segment naming the lost clusters) after
// the sweep, with no locks held.
func (s *Session) absorbCrash(shard int, pol RecoveryPolicy) (affected bool, requeued, purged, gangsAborted int, ended, reaped []request.ID) {
	now := s.f.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return false, 0, 0, 0, nil, nil
	}
	s.subs[shard] = nil
	s.handlers[shard] = nil
	for _, fid := range s.idsOnLocked(shard) {
		e := s.reqs[fid]
		switch {
		case e.state == queued:
			// Already waiting for a restart; nothing more to lose.
		case e.done:
			// The finished request's state died with the shard; nothing can
			// reference it anymore. Its finish was already delivered — the
			// reap the dead shard's GC would have produced still must be.
			s.forgetLocked(fid)
			purged++
			reaped = append(reaped, fid)
			s.noteGangParentLocked(fid, true)
		case e.started && e.spec.Type == request.NonPreempt && now >= e.startedAt+e.spec.Duration:
			// The allocation ran to its logical end before the crash; only
			// the shard's sweep (which died with it) hadn't recorded the
			// finish. Completed work is not re-run under RequeueOnCrash,
			// and its loss kills nobody under §3.1.4 (no live state died).
			s.forgetLocked(fid)
			purged++
			ended = append(ended, fid)
			reaped = append(reaped, fid)
			s.noteGangParentLocked(fid, true)
		case e.state != placed:
			// A tentative hold is coordinator-owned state: no allocation ever
			// ran behind it, so its loss never kills the session (§3.1.4
			// guards live state). Under RequeueOnCrash the reservation is
			// queued — relation intact, its parent lives elsewhere — and
			// replayQueue restarts it; otherwise the gang is aborted and the
			// child dropped with the reap-without-finish signal.
			if pol == RequeueOnCrash {
				e.state = queued
				requeued++
			} else {
				s.forgetLocked(fid)
				purged++
				gangsAborted++
				reaped = append(reaped, fid)
			}
		case pol == RequeueOnCrash:
			// A relation whose parent did not survive to the queue (it was
			// finished, or already gone) is replayed unconstrained: NEXT
			// after a finished parent is trivially satisfied, and the node
			// hand-over it implied died with the shard anyway.
			if e.spec.RelatedHow != request.Free {
				if pe := s.reqs[e.spec.RelatedTo]; pe == nil || pe.state != queued {
					e.spec.RelatedHow = request.Free
					e.spec.RelatedTo = 0
				}
			}
			e.state = queued
			// The interrupted run's start is history: if the shard dies
			// again before the replay re-starts, the request must read as
			// interrupted work, not as an allocation that ran out.
			e.started = false
			e.startedAt = 0
			requeued++
		default:
			affected = true
		}
	}
	return affected, requeued, purged, gangsAborted, ended, reaped
}

// notifyRetired delivers the observer events for records the federation
// itself retired. For the mappings a crash sweep purged: finishes for
// allocations that ran out before the crash, then one ascending reap batch
// covering every purged request — the ran-out ones and those that had
// finished earlier but were never GC-reaped by the dead shard (their finish
// was already delivered). For a voluntary withdraw: the finish + reap pair,
// mirroring the single-RMS pending-withdraw. Called with no locks held.
func (s *Session) notifyRetired(ended, reaped []request.ID) {
	ro, ok := s.h.(rms.RequestObserver)
	if !ok {
		return
	}
	for _, fid := range ended {
		ro.OnRequestFinished(fid)
	}
	if len(reaped) > 0 {
		ro.OnRequestsReaped(reaped)
	}
}

// admitShard connects the session to shard i under its federated ID and
// reports whether it did (false: the session was torn down). Shared
// by Connect's initial fan-out and RestartShard's re-admission, both of which
// hold f.topoMu: the shard is running and stays so, and nobody else admits.
func (s *Session) admitShard(i int) bool {
	// The handler is current before ConnectID, which flushes synchronously.
	h := &shardHandler{sess: s, shard: i}
	s.mu.Lock()
	s.handlers[i] = h
	s.mu.Unlock()
	// ConnectID outside sess.mu: it flushes notifications, which
	// synchronously re-enter the session through the shardHandler.
	sub, err := s.f.shards[i].ConnectID(h, s.id, s.connect...)
	if err != nil {
		// The federator owns the ID space and the shard's lifecycle; a
		// collision or a stopped shard is a bug.
		panic(fmt.Sprintf("federation: shard %d rejected app %d: %v", i, s.id, err))
	}
	s.mu.Lock()
	if s.killed { // a Disconnect raced the connect (real clock only)
		s.mu.Unlock()
		sub.Disconnect()
		return false
	}
	s.subs[i] = sub
	s.mu.Unlock()
	return true
}

// notifyDropped reports a queued request that will never start to handlers
// implementing rms.RequestObserver, so an application is never left waiting
// on an OnStart that cannot come. A drop is a reap *without* a preceding
// finish — the allocation never ran — which is how observers distinguish
// lost work from completed work. Called with no session lock held.
func (s *Session) notifyDropped(fid request.ID) {
	if ro, ok := s.h.(rms.RequestObserver); ok {
		ro.OnRequestsReaped([]request.ID{fid})
	}
}

// idsOnLocked returns the IDs of shard's records in ascending order, which is
// submission order (IDs are drawn at submission) and puts a relation's parent
// before its child. Caller holds sess.mu.
func (s *Session) idsOnLocked(shard int) []request.ID {
	var fids []request.ID
	for fid, e := range s.reqs {
		if e.shard == shard {
			fids = append(fids, fid)
		}
	}
	slices.Sort(fids)
	return fids
}

// replayQueue re-submits the session's queued requests to a restarted shard
// in submission order, under their original IDs: the replay queue is the
// shard's queued records. A request whose
// relation cannot be resolved anymore (its parent was dropped) or that the
// shard rejects is dropped, with a drop notification to observer handlers.
func (s *Session) replayQueue(shard int) (replayed, dropped int) {
	s.mu.Lock()
	fids := s.idsOnLocked(shard)
	s.mu.Unlock()
	for _, fid := range fids {
		s.mu.Lock()
		e := s.reqs[fid]
		if e == nil || e.state != queued {
			s.mu.Unlock()
			continue
		}
		sub := s.subs[shard]
		doomed := s.killed || sub == nil // nobody to replay for, nothing to replay onto
		if e.spec.RelatedHow != request.Free {
			pe := s.reqs[e.spec.RelatedTo]
			switch {
			case pe == nil || pe.state == queued:
				// The parent's replay failed or it was dropped: cascade.
				doomed = true
			case pe.shard == shard:
				// The parent lives on this same shard — possibly co-located
				// by a migration since the hold was placed. An ordinary
				// related replay; any reservation state is obsolete.
				clearGang(e)
			}
			// Otherwise a cross-shard relation with a live parent: place
			// restarts (or, for a spec queued at submit time, starts) the
			// two-phase reservation instead of submitting a related request.
		}
		s.mu.Unlock()
		if !doomed {
			if hold, err := s.place(fid, e, sub, 0); err == nil {
				if hold {
					s.f.stats.gangRetried.Add(1)
				}
				replayed++
				continue
			}
		}
		s.drop(fid)
		dropped++
	}
	return replayed, dropped
}

// queueLost queues, for deliver to hand over, the federation's own segment
// naming the clusters a topology transition took from the session with zero
// profiles (one map for both views). A migration queues it before the
// attach, ahead of every push of the new owner, and passes the donor as from
// (a crash passes -1): shardHandler.OnViews then strips the clusters from
// the donor's pushes, which can only predate the detach.
func (s *Session) queueLost(lost view.View, from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	for cid := range lost.All() {
		if from >= 0 {
			s.movedFrom[cid] = from
		}
	}
	s.segs = append(s.segs, [2]view.View{lost, lost})
}

// deliver hands the queued segments to the application in order, with no
// lock held. If a delivery is already in progress the queue is left for the
// active deliverer's loop, so handler calls stay serialized per session
// (possible under clock.RealClock where shards run concurrently, or when a
// handler re-enters).
func (s *Session) deliver() {
	s.mu.Lock()
	if s.delivering {
		s.mu.Unlock()
		return
	}
	s.delivering = true
	for i := 0; i < len(s.segs); i++ {
		seg := s.segs[i]
		s.mu.Unlock()
		s.h.OnViews(seg[0], seg[1])
		s.mu.Lock()
	}
	clear(s.segs) // drop the delivered maps, keep the backing array
	s.segs = s.segs[:0]
	s.delivering = false
	s.mu.Unlock()
}

// checkInvariants verifies the session's request table against the shard
// topology: nothing references a down shard except queued entries, every
// record routes to the shard owning its target cluster (no orphans after a
// migration hand-over), only a hold carries a reservation, and
// every running shard holds exactly the requests the table places on it,
// under the same IDs. The shards are read before the table (sess.mu never
// nests a shard lock), so — like the admission check in CheckInvariants —
// that comparison wants no call in flight.
func (s *Session) checkInvariants(down []bool, owner map[view.ClusterID]int) error {
	s.mu.Lock()
	subs := append([]*rms.Session(nil), s.subs...)
	s.mu.Unlock()
	onShard := make(map[request.ID]int) // request → the shard holding it
	for shard, sub := range subs {
		if sub == nil {
			continue
		}
		for _, id := range sub.RequestIDs() {
			if other, dup := onShard[id]; dup {
				return fmt.Errorf("federation: app %d request %d is held by shards %d and %d", s.id, id, other, shard)
			}
			onShard[id] = shard
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for fid, e := range s.reqs {
		if own, ok := owner[e.spec.Cluster]; !ok || own != e.shard {
			return fmt.Errorf("federation: app %d request %d maps to shard %d but cluster %q is owned by shard %d",
				s.id, fid, e.shard, e.spec.Cluster, own)
		}
		if e.gang != nil && e.state == placed {
			return fmt.Errorf("federation: app %d reservation record for committed request %d (half-committed gang)", s.id, fid)
		}
		if e.state == queued {
			if !down[e.shard] {
				return fmt.Errorf("federation: app %d request %d queued for running shard %d", s.id, fid, e.shard)
			}
			continue
		}
		if down[e.shard] {
			return fmt.Errorf("federation: app %d request %d maps to down shard %d", s.id, fid, e.shard)
		}
		if e.state != placed { // a hold, on its shard or released
			if e.gang == nil {
				return fmt.Errorf("federation: app %d held request %d has no reservation record (leaked hold)", s.id, fid)
			}
			if e.spec.RelatedHow == request.Free {
				return fmt.Errorf("federation: app %d held request %d carries no relation", s.id, fid)
			}
			if e.started || e.done {
				return fmt.Errorf("federation: app %d held request %d has started or finished", s.id, fid)
			}
		}
		if e.state == released {
			continue // no shard-side presence, only coordinator state
		}
		if on, ok := onShard[fid]; !ok || on != e.shard {
			return fmt.Errorf("federation: app %d request %d is placed on shard %d, which does not hold it", s.id, fid, e.shard)
		}
		delete(onShard, fid)
	}
	if len(onShard) > 0 {
		return fmt.Errorf("federation: app %d: shards hold requests the session does not place there (request → shard): %v", s.id, onShard)
	}
	return nil
}

// shardHandler is the per-(session, shard) rms.AppHandler: it fans shard
// notifications back into the federated session. It also implements
// rms.RequestObserver so the session's request table shrinks in lockstep
// with the shard's request GC.
type shardHandler struct {
	sess  *Session
	shard int
}

// OnViews forwards the shard's segment, which names every cluster the shard
// owns, untouched: a single RMS's push and a shard's are the same thing, so
// a 1-shard federation is a single RMS by construction — except that a
// cluster a migration took from the shard is stripped, from a copy, and that
// a push reaching a handler the session no longer holds for the shard is
// dropped: the shard computed it before it crashed, so it may trail the
// crash's zero segment, and the restarted shard pushes afresh.
func (h *shardHandler) OnViews(np, p view.View) {
	s := h.sess
	s.mu.Lock()
	if s.handlers[h.shard] != h {
		s.mu.Unlock()
		return
	}
	for cid, from := range s.movedFrom {
		if _, stale := np.Lookup(cid); stale && from == h.shard {
			np, p = np.Clone(), p.Clone()
			np.Delete(cid)
			p.Delete(cid)
		}
	}
	s.segs = append(s.segs, [2]view.View{np, p})
	s.mu.Unlock()
	s.deliver()
}

// OnStart records the start instant (crash recovery distinguishes
// allocations that ran out their duration from ones interrupted mid-run) and
// forwards the notification. Under clock.RealClock a migration can overtake
// a start a round delivers unlocked: the new owner holds the request started
// with the same IDs, so it is forwarded, unless a crash queued the record or
// the new owner reaped it. Inside the simulator it is always on the shard.
func (h *shardHandler) OnStart(id request.ID, nodeIDs []int) {
	s := h.sess
	s.mu.Lock()
	e := s.reqs[id]
	if e == nil || e.state.nowhere() {
		s.mu.Unlock()
		return
	}
	e.started = true
	e.startedAt = s.f.clk.Now()
	s.noteGangParentLocked(id, false)
	s.mu.Unlock()
	s.h.OnStart(id, nodeIDs)
}

// OnRequestFinished marks the request finished in the session's table
// (finished requests are never requeued after a crash) and forwards the
// event to applications implementing rms.RequestObserver, matching what a
// single RMS would deliver.
func (h *shardHandler) OnRequestFinished(id request.ID) {
	s := h.sess
	s.mu.Lock()
	e := s.onShardLocked(h.shard, id)
	if e != nil {
		e.done = true
		s.noteGangParentLocked(id, true)
	}
	s.mu.Unlock()
	if e == nil {
		return
	}
	if ro, obs := s.h.(rms.RequestObserver); obs {
		ro.OnRequestFinished(id)
	}
}

// OnRequestsReaped prunes the records of requests the shard garbage-
// collected: they are finished with no pending NEXT/COALLOC child, so
// nothing can ever reference them again. The shard reports ascending IDs.
func (h *shardHandler) OnRequestsReaped(ids []request.ID) {
	s := h.sess
	known := make([]request.ID, 0, len(ids))
	s.mu.Lock()
	for _, id := range ids {
		if s.onShardLocked(h.shard, id) != nil {
			// A held child can be reaped only through an application-side
			// withdraw (Done on a pending hold); its reservation goes with it.
			s.forgetLocked(id)
			known = append(known, id)
		}
	}
	s.mu.Unlock()
	if len(known) == 0 {
		return
	}
	if ro, obs := s.h.(rms.RequestObserver); obs {
		ro.OnRequestsReaped(known)
	}
}

// OnKill propagates a shard-side protocol-violation kill (§3.1.4) to the
// whole federated session: the remaining shard sub-sessions are
// disconnected and the application sees a single OnKill. Disconnecting the
// killing shard's own sub-session is a harmless no-op (it is already marked
// killed shard-side before this notification is flushed).
func (h *shardHandler) OnKill(reason string) { h.sess.teardown(reason) }

// CooperatesOnNodeFailure answers for the application behind the handler:
// the shardHandler itself always implements rms.NodeFailureHandler (it must
// forward events), so without this the shard would treat every federated app
// as cooperative and strand reduced allocations nobody acts on.
func (h *shardHandler) CooperatesOnNodeFailure() bool {
	return rms.CooperatesOnNodeFailure(h.sess.h)
}

// OnNodeFailure forwards a node-failure event to applications implementing
// rms.NodeFailureHandler. A requeued request also clears its recorded start:
// it is pending again, and a later shard crash must read it as interrupted
// work to be replayed, not as an allocation that ran out its duration.
func (h *shardHandler) OnNodeFailure(ev rms.NodeFailure) {
	s := h.sess
	s.mu.Lock()
	e := s.onShardLocked(h.shard, ev.Request)
	if e != nil && ev.Action == rms.NodeFaultRequeued {
		e.started = false
		e.startedAt = 0
	}
	s.mu.Unlock()
	if e == nil {
		// The record is registered under the shard lock before any node
		// event can touch the request; a miss mirrors OnStart's contract.
		panic(fmt.Sprintf("federation: shard %d reported node failure on unknown request %d for app %d", h.shard, ev.Request, s.id))
	}
	if nh, obs := s.h.(rms.NodeFailureHandler); obs {
		nh.OnNodeFailure(ev)
	}
}
