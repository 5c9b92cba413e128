package federation

import (
	"fmt"

	"coormv2/internal/view"
)

// Node-level fault routing: FailNodes/RecoverNodes go to the shard owning the
// cluster, whose node-ID pools are the one record of which machines are down.
// A shard crash loses scheduler state, not the fact that a machine is
// physically dead: a crashed shard still takes node faults into its pools,
// and RestartShard's Reset rejoins with those machines down. A migration
// carries the record inside the rms.ClusterSnapshot.

// NodeFaultReport summarizes one federated node-failure event.
type NodeFaultReport struct {
	Cluster view.ClusterID
	// Shard is the index of the owning shard.
	Shard int
	// Failed are the node IDs taken down (ascending).
	Failed []int
	// Applied is false when the owning shard was down: the failure is
	// recorded and the shard rejoins without the machines.
	Applied bool
	// Killed/Requeued/Reduced count the affected requests per action
	// (zero when not applied).
	Killed, Requeued, Reduced int
	// Capacity is the cluster's working-node count after the event (zero
	// when not applied).
	Capacity int
}

// String renders the report as one deterministic trace line.
func (r NodeFaultReport) String() string {
	return fmt.Sprintf("nodefail cluster=%s shard=%d nodes=%v applied=%t killed=%d requeued=%d reduced=%d capacity=%d",
		r.Cluster, r.Shard, r.Failed, r.Applied, r.Killed, r.Requeued, r.Reduced, r.Capacity)
}

// NodeRecoverReport summarizes one federated node-recovery event.
type NodeRecoverReport struct {
	Cluster view.ClusterID
	Shard   int
	// Recovered are the node IDs brought back (ascending).
	Recovered []int
	// Applied is false when the owning shard was down: the recovery is
	// recorded and the shard rejoins with the machines.
	Applied bool
	// Capacity is the cluster's working-node count after the event (zero
	// when not applied).
	Capacity int
}

// String renders the report as one deterministic trace line.
func (r NodeRecoverReport) String() string {
	return fmt.Sprintf("noderecover cluster=%s shard=%d nodes=%v applied=%t capacity=%d",
		r.Cluster, r.Shard, r.Recovered, r.Applied, r.Capacity)
}

// FailNodes marks the given nodes of cluster cid as down on the shard owning
// it (rms.Server.FailNodes). A running shard shrinks the cluster's capacity
// and handles every affected allocation per its node recovery policy; a
// crashed one only records the failure, and rejoins without the machines.
// The shard validates the IDs before any state changes.
func (f *Federator) FailNodes(cid view.ClusterID, ids []int) (NodeFaultReport, error) {
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	shard, ok := f.Owner(cid)
	rep := NodeFaultReport{Cluster: cid, Shard: shard}
	if !ok {
		return rep, fmt.Errorf("federation: unknown cluster %q", cid)
	}
	sh := f.shards[shard]
	applied := !sh.Stopped()
	srep, err := sh.FailNodes(cid, ids)
	if err != nil {
		return rep, err
	}
	rep.Failed = srep.Failed
	rep.Applied = applied
	if applied {
		rep.Killed, rep.Requeued, rep.Reduced = srep.Killed, srep.Requeued, srep.Reduced
		rep.Capacity = srep.Capacity
	}
	return rep, nil
}

// RecoverNodes marks the given nodes of cluster cid as working again on the
// shard owning it (rms.Server.RecoverNodes); a crashed shard records the
// recovery and rejoins with the machines.
func (f *Federator) RecoverNodes(cid view.ClusterID, ids []int) (NodeRecoverReport, error) {
	f.topoMu.Lock()
	defer f.topoMu.Unlock()
	shard, ok := f.Owner(cid)
	rep := NodeRecoverReport{Cluster: cid, Shard: shard}
	if !ok {
		return rep, fmt.Errorf("federation: unknown cluster %q", cid)
	}
	sh := f.shards[shard]
	applied := !sh.Stopped()
	srep, err := sh.RecoverNodes(cid, ids)
	if err != nil {
		return rep, err
	}
	rep.Recovered = srep.Recovered
	rep.Applied = applied
	if applied {
		rep.Capacity = srep.Capacity
	}
	return rep, nil
}
