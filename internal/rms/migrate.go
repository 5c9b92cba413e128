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
// DetachCluster snapshots one cluster — its capacity, node-ID pool occupancy
// and every session's requests targeting it — and removes it from the server;
// AttachCluster re-admits the snapshot on another server under the same
// request IDs. The federation layer (internal/federation.MigrateCluster)
// drives the pair as one atomic step and re-points its request→shard table
// through the observe hook. The same snapshot shape is the seed for
// the ROADMAP's warm-standby item: it is exactly the per-cluster portion of
// scheduler-side state a restarted shard would need to resume.

// ErrLastCluster is returned by DetachCluster when the cluster is the
// server's only one: a shard must always manage at least one cluster.
var ErrLastCluster = errors.New("rms: cannot detach a server's last cluster")

// RequestState is the portable state of one request inside a
// ClusterSnapshot: the application-provided spec plus every scheduler- and
// allocation-side attribute, so the importing server resumes exactly where
// the exporting one stopped. The request keeps its ID; only its admission
// sequence (request.Request.Seq) is the importing server's own.
type RequestState struct {
	ID         request.ID
	N          int
	Duration   float64
	Type       request.Type
	RelatedHow request.Relation
	RelatedTo  request.ID // parent's ID; 0 when Free

	NAlloc             int
	ScheduledAt        float64
	Fixed              bool
	EarliestScheduleAt float64

	StartedAt   float64 // NaN when not started
	NodeIDs     []int
	Finished    bool
	Wrapped     bool
	SubmittedAt float64 // NaN when never stamped; carried so waits survive migration

	// Held and NotBefore carry two-phase reservation state (see hold.go):
	// a migrating cluster keeps its tentative holds and start-time floors,
	// so a reservation coordinator finds them intact on the importing shard.
	Held      bool
	NotBefore float64
}

// SessionClusterState is one application's share of a ClusterSnapshot.
// Requests appear in set order (PA, then ¬P, then P, each in insertion
// order), which AttachCluster preserves — set order is scheduling order.
type SessionClusterState struct {
	AppID    int
	Requests []RequestState
}

// ClusterSnapshot is the complete transferable state of one cluster,
// produced by DetachCluster and consumed by AttachCluster.
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
	// Apps lists the sessions with requests on the cluster, ascending AppID.
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
	out := make(map[view.ClusterID]int, len(s.cfg.Clusters))
	for cid, n := range s.cfg.Clusters {
		out[cid] = n
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

// DetachCluster removes cluster cid from the server and returns its full
// transferable state. Every request targeting the cluster leaves with it;
// the sessions themselves stay connected (they may hold requests on other
// clusters). Allocation metrics are closed out at the detach instant so the
// node·second integrals move between shard recorders without overlap.
//
// A relation crossing the cluster boundary never blocks the detach. A dead
// one — its child already finished — is simply cut. A live NEXT/COALLOC edge
// is converted into a NotBefore pin on the unstarted child (the start-time
// target the relation implied at the detach instant) and then cut on both
// sides. The federation's reservation coordinator keeps cross-shard gang
// legs unrelated at the shard level and re-aligns them through the same
// NotBefore mechanism, so a severed pin is exactly the state the coordinator
// would have produced. Detaching the last cluster fails with ErrLastCluster.
func (s *Server) DetachCluster(cid view.ClusterID) (*ClusterSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrStopped
	}
	pool := s.pools[cid]
	if pool == nil {
		return nil, fmt.Errorf("rms: unknown cluster %q", cid)
	}
	if len(s.cfg.Clusters) == 1 {
		return nil, fmt.Errorf("%w (%q)", ErrLastCluster, cid)
	}
	// Pin and cut every live relation crossing the cluster boundary. (For
	// unfinished requests the parent is always still in a set — GC keeps
	// parents of pending/running children — so the parent's Cluster field is
	// authoritative.)
	for _, id := range s.sessionIDsLocked() {
		for _, r := range s.sessions[id].app.Requests() {
			if r.Finished || r.RelatedTo == nil {
				continue
			}
			if (r.Cluster == cid) != (r.RelatedTo.Cluster == cid) {
				severRelationLocked(r)
				s.touchLocked(id)
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
	for _, id := range s.sessionIDsLocked() {
		sess := s.sessions[id]
		var exported []*request.Request
		inSnap := make(map[*request.Request]bool)
		for _, set := range []*request.Set{sess.app.PA, sess.app.NP, sess.app.P} {
			for _, r := range set.All() {
				if r.Cluster == cid {
					exported = append(exported, r)
					inSnap[r] = true
				}
			}
		}
		if len(exported) == 0 {
			continue
		}
		st := SessionClusterState{AppID: id, Requests: make([]RequestState, 0, len(exported))}
		moved := 0
		for _, r := range exported {
			rs := RequestState{
				ID: r.ID, N: r.N, Duration: r.Duration, Type: r.Type,
				NAlloc: r.NAlloc, ScheduledAt: r.ScheduledAt, Fixed: r.Fixed,
				EarliestScheduleAt: r.EarliestScheduleAt,
				StartedAt:          r.StartedAt,
				NodeIDs:            append([]int(nil), r.NodeIDs...),
				Finished:           r.Finished, Wrapped: r.Wrapped,
				SubmittedAt: r.SubmittedAt,
				Held:        r.Held, NotBefore: r.NotBefore,
			}
			if r.RelatedTo != nil && inSnap[r.RelatedTo] {
				rs.RelatedHow, rs.RelatedTo = r.RelatedHow, r.RelatedTo.ID
			}
			// else: the parent stayed behind (possible only for a finished
			// request, or one whose parent was already GC-reaped) — the
			// relation is dead, export the request unconstrained.
			st.Requests = append(st.Requests, rs)
			moved += len(r.NodeIDs)
			sess.app.SetFor(r.Type).Remove(r)
		}
		// Sever dead relations pointing *into* the detached cluster from
		// requests that stay behind, so no live object references a request
		// this server no longer manages.
		for _, r := range sess.app.Requests() {
			if r.RelatedTo != nil && inSnap[r.RelatedTo] {
				r.RelatedHow, r.RelatedTo = request.Free, nil
			}
		}
		if moved > 0 {
			sess.held -= moved
			s.recordAllocLocked(sess, now)
		}
		s.touchLocked(id)
		snap.Apps = append(snap.Apps, st)
	}

	delete(s.pools, cid)
	delete(s.churn, cid)
	delete(s.cfg.Clusters, cid)
	s.sched.RemoveCluster(cid)
	s.loadEpoch++ // the topology change alone alters ClusterLoads
	s.recordPreAllocLocked(now)
	s.requestRunLocked()
	return snap, nil
}

// AttachCluster admits a detached cluster's state to this server: capacity
// and pool occupancy are restored exactly, and every snapshot request is
// re-created — under the ID it had, with a fresh admission sequence drawn in
// snapshot order — in its session's sets, preserving set order and relation
// topology. A snapshot request whose ID already names a request of its
// session here is refused with a *RequestError (ReasonInUse) and the server
// is left untouched. observe, when non-nil, is invoked for every imported
// request while the server lock is still held, mirroring RequestID's hook:
// any routing-table update done inside it is in place before a scheduling
// round can touch the request. observe must not call back into the server.
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
	if _, dup := s.cfg.Clusters[snap.Cluster]; dup {
		return fmt.Errorf("rms: cluster %q already attached", snap.Cluster)
	}
	for _, as := range snap.Apps {
		if sess := s.sessions[as.AppID]; sess != nil {
			for _, rs := range as.Requests {
				if sess.findRequestLocked(rs.ID) != nil {
					return errRequest(rs.ID, ReasonInUse)
				}
			}
		}
	}
	s.cfg.Clusters[snap.Cluster] = snap.Nodes
	pool := &idPool{
		size:    snap.Nodes,
		freeIDs: append([]int(nil), snap.FreeIDs...),
		failed:  append([]int(nil), snap.FailedIDs...),
	}
	s.pools[snap.Cluster] = pool
	s.churn[snap.Cluster] = snap.Churn
	// The scheduler plans against working nodes only: a cluster migrates
	// with its degraded capacity.
	s.sched.AddCluster(snap.Cluster, pool.capacity())

	now := s.clk.Now()
	for _, as := range snap.Apps {
		sess := s.sessions[as.AppID]
		if sess == nil {
			for _, rs := range as.Requests {
				if len(rs.NodeIDs) > 0 {
					pool.free(rs.NodeIDs)
				}
			}
			continue
		}
		byID := make(map[request.ID]*request.Request, len(as.Requests))
		moved := 0
		for _, rs := range as.Requests {
			r := request.New(rs.ID, as.AppID, snap.Cluster, rs.N, rs.Duration, rs.Type, request.Free, nil)
			r.Seq = int64(s.nextSeqLocked(rs.ID))
			r.NAlloc = rs.NAlloc
			r.ScheduledAt = rs.ScheduledAt
			r.Fixed = rs.Fixed
			r.EarliestScheduleAt = rs.EarliestScheduleAt
			r.StartedAt = rs.StartedAt
			r.NodeIDs = append([]int(nil), rs.NodeIDs...)
			r.Finished = rs.Finished
			r.Wrapped = rs.Wrapped
			r.SubmittedAt = rs.SubmittedAt
			r.Held = rs.Held
			r.NotBefore = rs.NotBefore
			byID[rs.ID] = r
			sess.app.SetFor(rs.Type).Add(r)
			moved += len(r.NodeIDs)
			if observe != nil {
				observe(as.AppID, rs.ID)
			}
		}
		// Second pass: re-link relations. A non-Free entry's parent is always
		// part of the same snapshot (DetachCluster severed the rest).
		for _, rs := range as.Requests {
			if rs.RelatedHow == request.Free {
				continue
			}
			parent := byID[rs.RelatedTo]
			if parent == nil {
				panic(fmt.Sprintf("rms: snapshot request %d relates to absent request %d", rs.ID, rs.RelatedTo))
			}
			byID[rs.ID].RelatedHow, byID[rs.ID].RelatedTo = rs.RelatedHow, parent
		}
		if moved > 0 {
			sess.held += moved
			s.recordAllocLocked(sess, now)
		}
		s.touchLocked(as.AppID)
		s.stats.migratedRequests += int64(len(as.Requests))
	}
	s.loadEpoch++ // the topology change alone alters ClusterLoads
	s.recordPreAllocLocked(now)
	s.requestRunLocked()
	return nil
}
