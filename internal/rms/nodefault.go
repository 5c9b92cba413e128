package rms

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// This file implements node-level fault injection: FailNodes marks
// individual machines of a cluster as down, shrinking the cluster's
// effective capacity and applying a per-request recovery policy to every
// allocation that held a dead node; RecoverNodes brings machines back.
// Shard-level crashes (Stop/Reset) model a dying RMS process; node-level
// faults model dying machines under a healthy RMS — the other half of the
// paper's §3.1.4 fault model. The two are independent: the pools own the
// record of which machines are down, a stopped server still takes node
// faults into it, and Reset rejoins with those machines down.

// NodeRecoveryPolicy selects what happens to a started non-preemptible
// request when a node it holds dies. Preemptible requests are always
// handled cooperatively: revocation is within the preemptible contract
// (§3.1.4), so the allocation is reduced to its surviving nodes and the
// application is notified. Pre-allocations hold no node IDs and are never
// affected.
type NodeRecoveryPolicy int

const (
	// KillOnNodeFailure terminates the affected request (§3.1.4 applied per
	// request): surviving node IDs are released, the request is removed, and
	// RequestObserver handlers see a reap without a preceding finish — the
	// established lost-work signal.
	KillOnNodeFailure NodeRecoveryPolicy = iota
	// RequeueOnNodeFailure resets the affected request to pending: all
	// surviving node IDs are released and the request re-runs from scratch
	// when the scheduler places it again. Work done before the failure is
	// repeated (the waste of this policy).
	RequeueOnNodeFailure
	// CooperativeOnNodeFailure keeps the request running on its surviving
	// nodes and notifies the application through NodeFailureHandler; the
	// application chooses checkpoint/resubmit behaviour itself. Sessions
	// whose handler does not implement NodeFailureHandler fall back to
	// RequeueOnNodeFailure — nobody would ever act on the reduced
	// allocation otherwise.
	CooperativeOnNodeFailure
)

// String names the policy for reports and experiment tables.
func (p NodeRecoveryPolicy) String() string {
	switch p {
	case KillOnNodeFailure:
		return "kill"
	case RequeueOnNodeFailure:
		return "requeue"
	case CooperativeOnNodeFailure:
		return "cooperative"
	default:
		return fmt.Sprintf("NodeRecoveryPolicy(%d)", int(p))
	}
}

// NodeFaultAction describes what the server did to one affected request.
type NodeFaultAction int

const (
	// NodeFaultKilled: the request was terminated; its work is lost.
	NodeFaultKilled NodeFaultAction = iota
	// NodeFaultRequeued: the request was reset to pending for a full re-run.
	NodeFaultRequeued
	// NodeFaultReduced: the request keeps running on its surviving nodes.
	NodeFaultReduced
)

// String names the action for traces.
func (a NodeFaultAction) String() string {
	switch a {
	case NodeFaultKilled:
		return "killed"
	case NodeFaultRequeued:
		return "requeued"
	case NodeFaultReduced:
		return "reduced"
	default:
		return fmt.Sprintf("NodeFaultAction(%d)", int(a))
	}
}

// NodeFailure is the notification delivered to NodeFailureHandler
// implementations for each request affected by a node failure.
type NodeFailure struct {
	// Cluster is the cluster that lost nodes.
	Cluster view.ClusterID
	// Request is the affected request.
	Request request.ID
	// Action is what the server did to the request.
	Action NodeFaultAction
	// LostIDs are the dead node IDs stripped from the request (ascending).
	LostIDs []int
	// Remaining are the node IDs the request still holds after the event
	// (ascending; nil unless Action == NodeFaultReduced).
	Remaining []int
}

// NodeFailureHandler is an optional AppHandler extension for applications
// that cooperate with node failures: resubmitting reduced work, cancelling
// stale completion timers, or checkpointing progress. Like every handler
// callback it is delivered without the server lock held, in deterministic
// order (sessions in connection order, then requests in set order), and may
// call back into the Session.
type NodeFailureHandler interface {
	OnNodeFailure(ev NodeFailure)
}

// CooperatesOnNodeFailure reports whether handler h would act on a reduced
// allocation under CooperativeOnNodeFailure. Routing layers (the federation
// shardHandler) always implement NodeFailureHandler to forward events, so a
// bare type assertion would claim cooperation for every federated app; such
// layers additionally implement `CooperatesOnNodeFailure() bool` to answer
// for the application behind them, and that answer wins when present.
func CooperatesOnNodeFailure(h AppHandler) bool {
	if c, ok := h.(interface{ CooperatesOnNodeFailure() bool }); ok {
		return c.CooperatesOnNodeFailure()
	}
	_, ok := h.(NodeFailureHandler)
	return ok
}

// NodeFaultReport summarizes one FailNodes call for traces and experiment
// accounting.
type NodeFaultReport struct {
	Cluster view.ClusterID
	// Failed are the node IDs taken down by this call (ascending).
	Failed []int
	// Killed/Requeued/Reduced count the affected requests per action.
	Killed, Requeued, Reduced int
	// Capacity is the cluster's working-node count after the event.
	Capacity int
}

// NodeRecoverReport summarizes one RecoverNodes call.
type NodeRecoverReport struct {
	Cluster view.ClusterID
	// Recovered are the node IDs brought back by this call (ascending).
	Recovered []int
	// Capacity is the cluster's working-node count after the event.
	Capacity int
}

// FailedNodeIDs returns the currently-down node IDs of cluster cid in
// ascending order, or nil for an unknown cluster. A stopped server answers
// too: its machines are down or up whatever happened to the process.
func (s *Server) FailedNodeIDs(cid view.ClusterID) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pool := s.pools[cid]
	if pool == nil {
		return nil
	}
	return pool.failedIDs()
}

// FailNodes marks the given node IDs of cluster cid as down. The cluster's
// effective capacity shrinks by len(ids) immediately — the scheduler's
// cached base-availability folds are invalidated and the next round plans
// against the reduced cluster. Every allocation holding a dead node is
// identified and handled per the server's NodeRecovery policy (see
// NodeRecoveryPolicy); the IDs are validated as a batch before any state
// changes, so on error the server is untouched. On a stopped server the
// failure is validated and recorded alike, and nothing else happens: there
// is no session to affect and no round to run until Reset.
func (s *Server) FailNodes(cid view.ClusterID, ids []int) (*NodeFaultReport, error) {
	s.mu.Lock()
	pool := s.pools[cid]
	if pool == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownCluster, cid)
	}
	failing := append([]int(nil), ids...)
	sort.Ints(failing)
	for i, id := range failing {
		if id < 0 || id >= pool.size {
			s.mu.Unlock()
			return nil, fmt.Errorf("rms: failing out-of-range node %d on %q", id, cid)
		}
		if pool.isFailed(id) {
			s.mu.Unlock()
			return nil, fmt.Errorf("rms: node %d on %q is already down", id, cid)
		}
		if i > 0 && failing[i-1] == id {
			s.mu.Unlock()
			return nil, fmt.Errorf("rms: node %d on %q failed twice in one call", id, cid)
		}
	}

	for _, id := range failing {
		if _, err := pool.fail(id); err != nil {
			// Unreachable after the batch validation above; a refusal leaves
			// the remaining IDs unmarked.
			break
		}
	}
	s.stats.failedNodes += int64(len(failing))
	rep := &NodeFaultReport{Cluster: cid, Failed: failing, Capacity: pool.capacity()}
	if s.stopped {
		s.mu.Unlock()
		return rep, nil
	}
	dead := func(nid int) bool { return slices.Contains(failing, nid) }

	now := s.clk.Now()
	for _, a := range s.sched.Apps() {
		appID, sess := a.ID, s.sessions[a.ID]
		var killed []*request.Request
		for _, r := range sess.app.Requests() {
			if r.Cluster != cid || len(r.NodeIDs) == 0 {
				continue
			}
			var lost []int
			for _, nid := range r.NodeIDs {
				if dead(nid) {
					lost = append(lost, nid)
				}
			}
			if len(lost) == 0 {
				continue
			}
			sort.Ints(lost)
			r.NodeIDs = slices.DeleteFunc(r.NodeIDs, dead)
			s.touchLocked(appID)
			if r.Finished {
				// IDs parked on a finished request for a NEXT hand-over: the
				// survivors stay parked, the child inherits fewer and tops up
				// from the pool. No policy applies — nothing is running.
				continue
			}

			action := s.nodeActionLocked(sess, r)
			switch action {
			case NodeFaultKilled:
				if len(r.NodeIDs) > 0 {
					s.mustFreeLocked(cid, r.NodeIDs)
					r.NodeIDs = nil
				}
				killed = append(killed, r)
				rep.Killed++
				s.stats.nodeKilled++
			case NodeFaultRequeued:
				if len(r.NodeIDs) > 0 {
					s.mustFreeLocked(cid, r.NodeIDs)
					r.NodeIDs = nil
				}
				r.StartedAt = math.NaN()
				r.Fixed = false
				r.ScheduledAt = math.Inf(1)
				r.Wrapped = false
				rep.Requeued++
				s.stats.nodeRequeued++
			case NodeFaultReduced:
				r.NAlloc = len(r.NodeIDs)
				rep.Reduced++
				s.stats.nodeReduced++
			}
			s.notifyNodeFailureLocked(sess, NodeFailure{
				Cluster:   cid,
				Request:   r.ID,
				Action:    action,
				LostIDs:   lost,
				Remaining: remainingFor(action, r),
			})
		}
		if len(killed) > 0 {
			reaped := make([]request.ID, 0, len(killed))
			for _, r := range killed {
				sess.app.SetFor(r.Type).Remove(r)
				reaped = append(reaped, r.ID)
				// Sever relations pointing at the killed request so no live
				// object references a request the server no longer manages
				// (same discipline as DetachCluster's dead-relation pass).
				for _, q := range sess.app.Requests() {
					if q.RelatedTo == r {
						q.RelatedHow, q.RelatedTo = request.Free, nil
					}
				}
			}
			sort.Slice(reaped, func(i, j int) bool { return reaped[i] < reaped[j] })
			s.notifyReapedLocked(sess, reaped)
		}
		s.recordAllocLocked(sess, now)
	}

	s.sched.SetCapacity(cid, pool.capacity())
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return rep, nil
}

// RecoverNodes marks the given node IDs of cluster cid as working again:
// they return to the free pool and the cluster's effective capacity grows
// back, invalidating the scheduler's cached folds so the next round plans
// against the restored cluster. The IDs are validated as a batch before any
// state changes. On a stopped server the recovery is only recorded, as
// FailNodes records a failure there.
func (s *Server) RecoverNodes(cid view.ClusterID, ids []int) (*NodeRecoverReport, error) {
	s.mu.Lock()
	pool := s.pools[cid]
	if pool == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownCluster, cid)
	}
	recovering := append([]int(nil), ids...)
	sort.Ints(recovering)
	for i, id := range recovering {
		if !pool.isFailed(id) {
			s.mu.Unlock()
			return nil, fmt.Errorf("rms: recovering node %d on %q which is not down", id, cid)
		}
		if i > 0 && recovering[i-1] == id {
			s.mu.Unlock()
			return nil, fmt.Errorf("rms: node %d on %q recovered twice in one call", id, cid)
		}
	}
	for _, id := range recovering {
		if err := pool.recover(id); err != nil {
			break // unreachable after batch validation
		}
	}
	s.stats.recoveredNodes += int64(len(recovering))
	rep := &NodeRecoverReport{Cluster: cid, Recovered: recovering, Capacity: pool.capacity()}
	if s.stopped {
		s.mu.Unlock()
		return rep, nil
	}
	s.sched.SetCapacity(cid, pool.capacity())
	s.requestRunLocked()
	s.mu.Unlock()
	s.flush()
	return rep, nil
}

// nodeActionLocked decides the fate of one affected, unfinished request.
func (s *Server) nodeActionLocked(sess *Session, r *request.Request) NodeFaultAction {
	if r.Type == request.Preempt {
		// Revocation is within the preemptible contract: always reduce.
		return NodeFaultReduced
	}
	switch s.cfg.NodeRecovery {
	case KillOnNodeFailure:
		return NodeFaultKilled
	case CooperativeOnNodeFailure:
		if CooperatesOnNodeFailure(sess.h) {
			return NodeFaultReduced
		}
		return NodeFaultRequeued
	default:
		return NodeFaultRequeued
	}
}

// remainingFor copies the surviving node IDs for a reduced request's
// notification; killed and requeued requests hold nothing afterwards.
func remainingFor(action NodeFaultAction, r *request.Request) []int {
	if action != NodeFaultReduced || len(r.NodeIDs) == 0 {
		return nil
	}
	out := append([]int(nil), r.NodeIDs...)
	sort.Ints(out)
	return out
}

// notifyNodeFailureLocked queues an OnNodeFailure notification for handlers
// implementing the NodeFailureHandler extension.
func (s *Server) notifyNodeFailureLocked(sess *Session, ev NodeFailure) {
	if nh, ok := sess.h.(NodeFailureHandler); ok {
		s.notifyLocked(func() { nh.OnNodeFailure(ev) })
	}
}

// mustFreeLocked returns IDs to a pool on an internal path where a failure
// indicates state corruption. The pool rejects the batch atomically, so
// degrading costs leaked IDs, not a crashed daemon; the violation is counted
// (Stats "pool_violations") and CheckInvariants reports the leak.
func (s *Server) mustFreeLocked(cid view.ClusterID, ids []int) {
	if err := s.pools[cid].free(ids); err != nil {
		s.stats.poolViolations++
	}
}
