package rms

import (
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// ConnectOption configures a session at Connect/ConnectID time.
type ConnectOption func(*connectOpts)

type connectOpts struct {
	tenant string
}

// WithTenant tags the session with a tenant queue path ("org/team/q").
// Tenant-aware scheduling policies (internal/tenants) resolve the label
// against their queue tree — unknown or empty labels land in the
// "default" queue. Under the default FIFO policy the label is carried
// but has no scheduling effect, so federations can tag sessions before
// switching policies on.
func WithTenant(queue string) ConnectOption {
	return func(o *connectOpts) { o.tenant = queue }
}

// tenantKey normalizes a tenant label for accounting maps: the empty
// label files under "default", matching where tenant-aware policies
// route untagged sessions.
func tenantKey(label string) string {
	if label == "" {
		return "default"
	}
	return label
}

// TenantOf returns the tenant label a connected application was tagged
// with (possibly empty) and whether the application is connected.
func (s *Server) TenantOf(appID int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[appID]
	if sess == nil {
		return "", false
	}
	return sess.app.Tenant, true
}

// TenantLoads returns the node IDs currently held per tenant label per
// cluster (empty labels filed under "default"). It is the ground-truth
// usage figure invariant checks and experiments compare against policy
// tallies and quotas.
func (s *Server) TenantLoads() map[string]map[view.ClusterID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[view.ClusterID]int)
	for _, sess := range s.sessions {
		key := tenantKey(sess.app.Tenant)
		m := out[key]
		if m == nil {
			m = make(map[view.ClusterID]int)
			out[key] = m
		}
		for _, r := range sess.app.Requests() {
			if len(r.NodeIDs) > 0 {
				m[r.Cluster] += len(r.NodeIDs)
			}
		}
	}
	return out
}

// TenantPreempts returns the cumulative count of quota-preemption
// revocations per tenant label.
func (s *Server) TenantPreempts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tenantPreempts))
	for k, v := range s.tenantPreempts {
		out[k] = v
	}
	return out
}

// enforceQuotaLocked asks the scheduling policy for preemption victims
// and revokes them: the request is terminated at now, its node IDs are
// returned to the pool, and the application is notified through the
// ordinary OnRequestFinished path (a revocation is indistinguishable
// from expiry — applications resubmit like after any other loss). It
// reports whether anything was revoked, so the caller can schedule a
// follow-up round that fits the relieved demand into the freed capacity.
//
// The policy nominates victims only when revoking them relieves a
// starved guaranteed queue's shortage that free headroom cannot absorb
// (see tenants.DRFPolicy.Victims), so under FIFO — or any policy that is
// not a VictimNominator — this is a single nil check per round.
func (s *Server) enforceQuotaLocked(now float64) bool {
	if s.victims == nil {
		return false
	}
	s.victimBuf = s.victims.Victims(s.sched.Info(now), s.sched.Apps(), s.victimBuf[:0])
	revoked := false
	for _, r := range s.victimBuf {
		sess := s.sessions[r.AppID]
		if sess == nil || r.Finished || !r.Started() || r.Type != request.Preempt {
			continue // nomination went stale within the round
		}
		granted := r.NAlloc
		if len(r.NodeIDs) > 0 {
			s.mustFreeLocked(r.Cluster, r.NodeIDs)
			r.NodeIDs = nil
			s.recordAllocLocked(sess, now)
		}
		r.Duration = now - r.StartedAt
		if r.Duration == 0 {
			r.Duration = 1e-9 // keep a zero-length allocation representable
		}
		r.Finished = true
		revoked = true
		s.touchLocked(r.AppID)
		s.notifyFinishedLocked(sess, r.ID)
		s.tenantPreempts[tenantKey(sess.app.Tenant)]++
		if s.obs != nil {
			s.obs.Event(obs.Event{Time: now, Type: obs.EvPreempt, Shard: s.obsLabel,
				App: r.AppID, Cluster: string(r.Cluster), Request: int(r.ID), Value: float64(granted)})
		}
	}
	return revoked
}
