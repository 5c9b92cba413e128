package rms

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// This file implements live cluster hand-over between rms.Server instances:
// DetachCluster takes one cluster out of the server — its capacity, node-ID
// pool occupancy and every session's request records targeting it — and
// AttachCluster adds the same records to another server's sets under the
// same request IDs. The federation layer (internal/federation.MigrateCluster)
// drives the pair as one atomic step and re-points its request→shard table
// through the observe hook.

// ErrLastCluster is returned by DetachCluster when the cluster is the
// server's only one: a shard must always manage at least one cluster.
var ErrLastCluster = errors.New("rms: cannot detach a server's last cluster")

// SessionClusterState is one application's share of a ClusterSnapshot: the
// request records themselves, in set order (PA, then ¬P, then P, each in
// insertion order), which AttachCluster preserves — set order is scheduling
// order. A record's relation, if any, names a record of the same list.
type SessionClusterState struct {
	AppID    int
	Requests []*request.Request
}

// ClusterSnapshot is one detached cluster in transit, produced by
// DetachCluster and consumed by AttachCluster. It owns its request records
// until an attach adds them to a server's sets.
type ClusterSnapshot struct {
	Cluster view.ClusterID
	Nodes   int
	// FreeIDs is the node-ID pool's free list; IDs absent from it are held
	// by the snapshot's requests or down (the attach side re-forms the
	// exact pool).
	FreeIDs []int
	// FailedIDs are the node IDs currently down (ascending): a cluster
	// migrates with its degraded capacity, and the importing server resumes
	// scheduling against Nodes − len(FailedIDs) working nodes.
	FailedIDs []int
	// Churn carries the cluster's cumulative accepted-request counter so
	// rebalancer load deltas survive the move.
	Churn int64
	// Apps lists the sessions with requests on the cluster, in connection
	// order.
	Apps []SessionClusterState
}

// Requests returns the total number of requests carried by the snapshot.
func (cs *ClusterSnapshot) Requests() int {
	n := 0
	for _, as := range cs.Apps {
		n += len(as.Requests)
	}
	return n
}

// HeldNodes returns the number of node IDs held by the snapshot's requests.
func (cs *ClusterSnapshot) HeldNodes() int {
	n := 0
	for _, as := range cs.Apps {
		for _, rs := range as.Requests {
			n += len(rs.NodeIDs)
		}
	}
	return n
}

// Clusters returns the server's resource model (cluster ID → node count),
// reflecting any clusters attached or detached since construction.
func (s *Server) Clusters() map[view.ClusterID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[view.ClusterID]int, len(s.pools))
	for cid, pool := range s.pools {
		out[cid] = pool.size
	}
	return out
}

// ClusterLoad is one cluster's load signal: capacity, current node-ID
// occupancy (total and non-preemptible), and the cumulative
// accepted-request churn counter.
type ClusterLoad struct {
	Cluster view.ClusterID
	Nodes   int
	// Held counts every node ID currently allocated on the cluster.
	Held int
	// Firm counts the node IDs held by non-preemptible allocations only.
	// This is the occupancy signal the rebalancer scores: preemptible
	// holdings are reclaimable by definition, and a scavenging PSA fills
	// every idle node, so total occupancy converges to capacity on every
	// shard and would mask the very skew rebalancing exists to dissolve.
	Firm int
	// Churn is the cumulative count of accepted request() operations
	// targeting the cluster.
	Churn int64
}

// ClusterLoads reports every cluster's load in ascending cluster-ID order.
// It returns nil on a stopped server (a crashed shard serves no load).
func (s *Server) ClusterLoads() []ClusterLoad {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	firm := make(map[view.ClusterID]int, len(s.pools))
	for _, sess := range s.sessions {
		for _, r := range sess.app.NP.All() {
			firm[r.Cluster] += len(r.NodeIDs)
		}
	}
	out := make([]ClusterLoad, 0, len(s.pools))
	for cid, pool := range s.pools {
		out = append(out, ClusterLoad{
			Cluster: cid,
			Nodes:   pool.size,
			Held:    pool.size - pool.available() - len(pool.failed),
			Firm:    firm[cid],
			Churn:   s.churn[cid],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cluster < out[j].Cluster })
	return out
}

// severRelationLocked converts r's relation into a NotBefore pin (for an
// unstarted child: the parent-derived start target, when finite) and cuts
// the edge.
func severRelationLocked(r *request.Request) {
	parent := r.RelatedTo
	if !r.Started() {
		target := math.Inf(1)
		switch r.RelatedHow {
		case request.Coalloc:
			if parent.Started() {
				target = parent.StartedAt
			} else {
				target = parent.ScheduledAt
			}
		case request.Next:
			if parent.Started() {
				target = parent.End()
			} else if !math.IsInf(parent.ScheduledAt, 1) {
				target = parent.ScheduledAt + parent.Duration
			}
		}
		if !math.IsInf(target, 0) && !math.IsNaN(target) && target > r.NotBefore {
			r.NotBefore = target
		}
	}
	r.RelatedHow, r.RelatedTo = request.Free, nil
}

// DetachCluster removes cluster cid from the server and returns it in
// transit. Every request record targeting the cluster leaves the sets with
// it; the sessions themselves stay connected (they may hold requests on
// other clusters). Allocation metrics are closed out at the detach instant
// so the node·second integrals move between shard recorders without overlap.
//
// A relation crossing the cluster boundary never blocks the detach. A dead
// one — its child already finished — is simply cut. A live NEXT/COALLOC edge
// is converted into a NotBefore pin on the unstarted child (the start-time
// target the relation implied at the detach instant) and then cut on both
// sides. The federation's reservation coordinator keeps cross-shard gang
// legs unrelated at the shard level and re-aligns them through the same
// NotBefore mechanism, so a severed pin is exactly the state the coordinator
// would have produced. Detaching the last cluster fails with ErrLastCluster.
// It first waits for every queued notification's delivery (so not from a
// handler), while the server still owns the cluster: a handler hears all it
// says about the leaving records before their new server says anything.
func (s *Server) DetachCluster(cid view.ClusterID) (*ClusterSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitDeliveryLocked()
	if s.stopped {
		return nil, ErrStopped
	}
	pool := s.pools[cid]
	if pool == nil {
		return nil, fmt.Errorf("rms: unknown cluster %q", cid)
	}
	if len(s.pools) == 1 {
		return nil, fmt.Errorf("%w (%q)", ErrLastCluster, cid)
	}
	// Pin and cut every live relation crossing the cluster boundary. (For
	// unfinished requests the parent is always still in a set — GC keeps
	// parents of pending/running children — so the parent's Cluster field is
	// authoritative.)
	for _, a := range s.sched.Apps() {
		for _, r := range a.Requests() {
			if r.Finished || r.RelatedTo == nil {
				continue
			}
			if (r.Cluster == cid) != (r.RelatedTo.Cluster == cid) {
				severRelationLocked(r)
				s.touchLocked(a.ID)
			}
		}
	}

	now := s.clk.Now()
	snap := &ClusterSnapshot{
		Cluster:   cid,
		Nodes:     pool.size,
		FreeIDs:   append([]int(nil), pool.freeIDs...),
		FailedIDs: pool.failedIDs(),
		Churn:     s.churn[cid],
	}
	for _, a := range s.sched.Apps() {
		id, sess := a.ID, s.sessions[a.ID]
		st := SessionClusterState{AppID: id}
		leaving := make(map[*request.Request]bool)
		for _, set := range []*request.Set{sess.app.PA, sess.app.NP, sess.app.P} {
			for _, r := range set.All() {
				if r.Cluster == cid {
					st.Requests = append(st.Requests, r)
					leaving[r] = true
				}
			}
		}
		if len(st.Requests) == 0 {
			continue
		}
		held := false
		for _, r := range st.Requests {
			sess.app.SetFor(r.Type).Remove(r)
			held = held || len(r.NodeIDs) > 0
		}
		// Cut the relations still crossing the boundary. They are dead (the
		// live ones were severed above): a leaving record whose parent stayed
		// behind — possible only for a finished request, or one whose parent
		// was already reaped — leaves unconstrained, and no record that stays
		// references one this server no longer manages.
		for _, r := range append(sess.app.Requests(), st.Requests...) {
			if r.RelatedTo != nil && leaving[r] != leaving[r.RelatedTo] {
				r.RelatedHow, r.RelatedTo = request.Free, nil
			}
		}
		if held {
			s.recordAllocLocked(sess, now)
		}
		s.touchLocked(id)
		snap.Apps = append(snap.Apps, st)
	}

	delete(s.pools, cid)
	s.expirePushHorizonsLocked()
	delete(s.churn, cid)
	s.sched.RemoveCluster(cid)
	s.recordPreAllocLocked(now)
	s.requestRunLocked()
	return snap, nil
}

// AttachCluster admits a detached cluster to this server: capacity and pool
// occupancy are restored exactly, and every snapshot record is added to its
// session's sets as it is — same ID, same relations, set order preserved —
// stamped with a fresh admission sequence drawn in snapshot order. A snapshot
// request whose ID already names a request of its session here is refused
// with a *RequestError (ReasonInUse); the server and the records are left
// untouched, so the donor can take them back. observe, when non-nil, is
// invoked for every imported request while the server lock is still held,
// mirroring RequestID's hook: any routing-table update done inside it is in
// place before a scheduling round can touch the request. observe must not
// call back into the server.
//
// A snapshot application with no session on this server (possible only in
// real-clock races where the session died mid-migration) is dropped like a
// disconnect: its held node IDs return to the pool.
func (s *Server) AttachCluster(snap *ClusterSnapshot, observe func(appID int, id request.ID)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	if _, dup := s.pools[snap.Cluster]; dup {
		return fmt.Errorf("rms: cluster %q already attached", snap.Cluster)
	}
	for _, as := range snap.Apps {
		if sess := s.sessions[as.AppID]; sess != nil {
			for _, r := range as.Requests {
				if sess.findRequestLocked(r.ID) != nil {
					return errRequest(r.ID, ReasonInUse)
				}
			}
		}
	}
	pool := &idPool{
		size:    snap.Nodes,
		freeIDs: append([]int(nil), snap.FreeIDs...),
		failed:  append([]int(nil), snap.FailedIDs...),
	}
	s.pools[snap.Cluster] = pool
	s.expirePushHorizonsLocked()
	s.churn[snap.Cluster] = snap.Churn
	// The scheduler plans against working nodes only: a cluster migrates
	// with its degraded capacity.
	s.sched.AddCluster(snap.Cluster, pool.capacity())
	// A session whose last push still names the cluster has not been pushed
	// to since the cluster left this server; meanwhile a federation told the
	// handler the cluster was gone. Forget that push, so an equal profile is
	// not taken for one the handler holds.
	for _, sess := range s.sessions {
		if _, stale := sess.np.v.Lookup(snap.Cluster); stale {
			sess.np.v = nil
		}
	}

	now := s.clk.Now()
	for _, as := range snap.Apps {
		sess := s.sessions[as.AppID]
		if sess == nil {
			for _, r := range as.Requests {
				if len(r.NodeIDs) > 0 {
					pool.free(r.NodeIDs)
				}
			}
			continue
		}
		held := false
		for _, r := range as.Requests {
			r.Seq = int64(s.nextSeqLocked(r.ID))
			sess.app.SetFor(r.Type).Add(r)
			held = held || len(r.NodeIDs) > 0
			if observe != nil {
				observe(as.AppID, r.ID)
			}
		}
		if held {
			s.recordAllocLocked(sess, now)
		}
		s.touchLocked(as.AppID)
		s.stats.migratedRequests += int64(len(as.Requests))
	}
	s.recordPreAllocLocked(now)
	s.requestRunLocked()
	return nil
}
