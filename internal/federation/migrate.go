package federation

import (
	"fmt"

	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// Live cluster migration: MigrateCluster re-homes one cluster — capacity,
// node-ID pool occupancy, and every session's requests on it — from the
// shard that owns it to another running shard, as one atomic topology
// transition. The donor's state is drained with rms.Server.DetachCluster and
// re-admitted with AttachCluster on the target under the same request IDs;
// the sessions' records are re-pointed at the target through the attach
// observe hook (under the target's server lock, so no scheduling round can
// start a migrated request before its record names the shard that reports
// it — the same guarantee RequestID gives fresh requests).
//
// Determinism: inside the simulator a migration runs within a single event
// (the Rebalancer's "rebalance.check" timer), so request()/done() traffic is
// naturally quiesced and same-seed runs replay identically, crashes
// included — topoMu serializes migration against crash/restart under
// clock.RealClock, where the same atomicity must be enforced rather than
// inherited.
//
// Turns: under clock.RealClock a call the donor refuses after the detach takes
// a turn on the cluster (Federator.turn): it holds off the next migration
// (f.turns), waits out the one in flight (set in f.migrating before the
// detach, cleared at the commit or failure, no handler run between) once that
// one has detached, and is routed once more.

// MigrationReport summarizes one live cluster migration.
type MigrationReport struct {
	Cluster view.ClusterID
	From    int
	To      int
	// Apps counts the sessions whose requests moved with the cluster.
	Apps int
	// Requests counts the request mappings handed over (live + finished).
	Requests int
	// Nodes counts the node IDs that were held by migrated requests.
	Nodes int
}

// String renders the report as one deterministic trace line.
func (r MigrationReport) String() string {
	return fmt.Sprintf("migrate cluster=%s from=%d to=%d apps=%d reqs=%d nodes=%d",
		r.Cluster, r.From, r.To, r.Apps, r.Requests, r.Nodes)
}

// MigrateCluster moves cluster cid and all of its scheduler-side state to
// shard `to`. It fails — leaving every shard untouched — if the cluster is
// unknown, already owned by the target, the donor or target shard is down,
// or the donor would be left clusterless (rms.ErrLastCluster). A live
// NEXT/COALLOC relation crossing from the cluster to another donor cluster
// does not block the move: DetachCluster converts each crossing relation
// into a NotBefore floor carrying the same timing intent — the relation's
// constraint survives the cut, and the federation's cross-shard gangs (whose
// legs are shard-locally unrelated holds, see gang.go) were never entangling
// to begin with. On success the owner table and the sessions' request
// tables reflect the new topology before the call returns, every session
// has been handed a segment naming the cluster with zero profiles (its new
// owner's next push names it again), and the cluster is placed exactly
// once: a failure after the donor was drained re-attaches the snapshot to
// the donor. The detach waits for the donor's deliveries, so, like Connect
// and CheckInvariants, it must not be called from a notification handler.
func (f *Federator) MigrateCluster(cid view.ClusterID, to int) (MigrationReport, error) {
	if to < 0 || to >= len(f.shards) {
		return MigrationReport{Cluster: cid, From: -1, To: to},
			fmt.Errorf("federation: MigrateCluster(%q, %d) with %d shards", cid, to, len(f.shards))
	}
	f.topoMu.Lock()
	defer f.topoMu.Unlock()

	var pauseT0 float64
	if f.hMigrate != nil {
		pauseT0 = f.clk.Now()
	}
	rep := MigrationReport{Cluster: cid, To: to}
	f.mu.Lock()
	for f.turns[cid] > 0 {
		f.turnCond.Wait()
	}
	from, ok := f.owner[cid]
	rep.From = from
	if !ok {
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: unknown cluster %q", cid)
	}
	if from == to {
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: cluster %q is already owned by shard %d", cid, to)
	}
	if f.shards[from].Stopped() || f.shards[to].Stopped() {
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: cannot migrate %q from shard %d to %d: a shard is down", cid, from, to)
	}
	sessions := f.sessionsLocked()
	f.migrating = cid
	f.mu.Unlock()

	snap, err := f.shards[from].DetachCluster(cid)
	if err != nil {
		f.endMigration(cid, from)
		return rep, err
	}
	rep.Apps, rep.Requests, rep.Nodes = len(snap.Apps), snap.Requests(), snap.HeldNodes()
	// Until its new owner's first push names the cluster, every session reads
	// it as empty. The segment saying so is queued now, behind every push of
	// the donor's (the detach waited for its deliveries) and ahead of any of
	// the target's, and delivered once the migration is done.
	lost := view.Constant(0, cid)
	for _, sess := range sessions {
		sess.queueLost(lost)
	}

	byID := make(map[int]*Session, len(sessions))
	for _, sess := range sessions {
		byID[sess.id] = sess
	}
	repoint := func(dst int) func(appID int, id request.ID) {
		return func(appID int, id request.ID) {
			if sess := byID[appID]; sess != nil {
				sess.migrateMapping(dst, id)
			}
		}
	}
	if err = f.shards[to].AttachCluster(snap, repoint(to)); err != nil {
		// The target refused (unreachable in the simulator — topoMu excludes
		// a concurrent crash, the down check covered the rest): hand the
		// snapshot back to the donor, whose next push names the cluster again.
		if rerr := f.shards[from].AttachCluster(snap, repoint(from)); rerr != nil {
			panic(fmt.Sprintf("federation: cluster %q lost in migration: %v (after %v)", cid, rerr, err))
		}
		to = from // the cluster's owner from here on
	}
	f.endMigration(cid, to) // before any handler runs: one may wait for it
	for _, sess := range sessions {
		sess.rehomeDetachedHolds(cid, to)
		sess.deliver()
	}
	if err != nil {
		return rep, err
	}
	f.stats.migratedClusters.Add(1)
	if f.hMigrate != nil {
		// Detach→attach pause, clock-measured: the window in which the
		// cluster was placed on neither shard. Zero inside the simulator
		// (the whole migration runs within one event); real seconds under
		// clock.RealClock.
		pause := f.clk.Now() - pauseT0
		f.hMigrate.Record(pause)
		f.obsReg.Event(obs.Event{Time: pauseT0, Type: obs.EvMigrate,
			Cluster: string(cid), Value: pause})
	}
	return rep, nil
}

// endMigration commits owner for cid and wakes the calls waiting for a turn.
func (f *Federator) endMigration(cid view.ClusterID, owner int) {
	f.mu.Lock()
	f.owner[cid] = owner
	f.migrating = ""
	f.turnCond.Broadcast()
	f.mu.Unlock()
}

// turn runs call, a request() or done() refused in a way a migration of cid
// may have caused, once more, holding a turn on cid: no next migration of cid
// starts meanwhile. The one in flight is waited out only once it has detached
// the cluster; before that it may be waiting in the donor's delivery fence for
// the handler making the call. If it had not, call names cid again, and it has
// detached since, turn waits it out and runs call a third time.
func (f *Federator) turn(cid view.ClusterID, call func() (raced view.ClusterID)) {
	f.mu.Lock()
	f.turns[cid]++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.turns[cid]--
		f.turnCond.Broadcast()
		f.mu.Unlock()
	}()
	settled := f.awaitDetached(cid)
	if call() == cid && !settled && f.awaitDetached(cid) {
		call()
	}
}

// awaitDetached waits out the migration of cid in flight unless its donor
// still hosts the cluster, and reports whether none is left in flight.
func (f *Federator) awaitDetached(cid view.ClusterID) bool {
	f.mu.Lock()
	donor, inFlight := f.owner[cid], f.migrating == cid // the owner moves when it ends
	f.mu.Unlock()
	if _, hosted := f.shards[donor].Clusters()[cid]; !inFlight || hosted {
		return !inFlight
	}
	f.mu.Lock()
	for f.migrating == cid {
		f.turnCond.Wait()
	}
	f.mu.Unlock()
	return true
}

// migrateMapping re-points one request's record at shard dst. Called under
// the attaching shard's server lock (the sanctioned shard-lock → sess.mu
// nesting), so the record names dst before any scheduling round there can
// notify about the request.
func (s *Session) migrateMapping(dst int, id request.ID) {
	s.mu.Lock()
	if e := s.reqs[id]; e != nil {
		e.shard = dst
	}
	s.mu.Unlock()
}
