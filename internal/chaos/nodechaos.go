package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"

	"coormv2/internal/stats"
	"coormv2/internal/view"
)

// Node-level fault planning: alongside the shard crash/restart schedule, the
// harness derives a per-cluster machine failure/recovery schedule. Node
// faults model dying hardware under a healthy scheduler — the complementary
// half of the fault model — and are routed through
// federation.FailNodes/RecoverNodes so every recovery policy (kill, requeue,
// cooperative) can be exercised deterministically.

// NodeFault is one machine failure/recovery cycle on one cluster.
type NodeFault struct {
	Cluster   view.ClusterID
	Node      int
	FailAt    float64
	RecoverAt float64
}

// String renders the fault deterministically for traces.
func (f NodeFault) String() string {
	return fmt.Sprintf("nodefault cluster=%s node=%d fail@%g recover@%g", f.Cluster, f.Node, f.FailAt, f.RecoverAt)
}

// clusterSeed derives a per-cluster RNG seed from the plan seed, so each
// cluster's schedule depends only on (Seed, cluster ID) — never on how many
// other clusters exist or how they are partitioned into shards.
func clusterSeed(seed int64, cid view.ClusterID) int64 {
	h := fnv.New64a()
	h.Write([]byte(cid))
	return seed ^ int64(h.Sum64())
}

// PlanNodes derives the node-fault schedule for a cluster set. Per cluster —
// visited in sorted ID order with a seed derived from the cluster's ID — a
// renewal process draws failure instants (exponential inter-failure time with
// mean NodeMTTF) and an exponential repair time per failure; the failed
// machine is picked uniformly among the nodes up at that instant, so no node
// is ever failed twice concurrently, and failures overlap (a failure does not
// delay the next one). Because each cluster's draws come from its own derived
// RNG, the schedule is stable across shard counts and under adding clusters:
// a cluster's faults are identical in every topology.
func PlanNodes(cfg Config, clusters map[view.ClusterID]int) []NodeFault {
	cids := make([]view.ClusterID, 0, len(clusters))
	for cid := range clusters {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	var plan []NodeFault
	for _, cid := range cids {
		size := clusters[cid]
		rng := stats.NewRand(clusterSeed(cfg.Seed, cid))
		var down []NodeFault // this cluster's machines still under repair
		Renewal(rng, cfg.NodeMTTF, cfg.Horizon, 0, func(t float64) float64 {
			live := down[:0]
			for _, d := range down {
				if d.RecoverAt > t {
					live = append(live, d)
				}
			}
			down = live
			up := size - len(down)
			if up <= 0 {
				return 0 // every machine is already dead; the draw is spent
			}
			pick := rng.Intn(up)
			f := NodeFault{
				Cluster:   cid,
				Node:      pickUpNode(size, down, pick),
				FailAt:    t,
				RecoverAt: t + cfg.MeanNodeRecovery*rng.ExpFloat64(),
			}
			plan = append(plan, f)
			down = append(down, f)
			return 0
		})
	}
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].FailAt != plan[j].FailAt {
			return plan[i].FailAt < plan[j].FailAt
		}
		if plan[i].Cluster != plan[j].Cluster {
			return plan[i].Cluster < plan[j].Cluster
		}
		return plan[i].Node < plan[j].Node
	})
	return plan
}

// pickUpNode returns the pick-th node ID (0-based) among the nodes of
// 0..size-1 not currently down.
func pickUpNode(size int, down []NodeFault, pick int) int {
	isDown := make(map[int]bool, len(down))
	for _, d := range down {
		isDown[d.Node] = true
	}
	for id := 0; id < size; id++ {
		if isDown[id] {
			continue
		}
		if pick == 0 {
			return id
		}
		pick--
	}
	panic(fmt.Sprintf("chaos: pickUpNode(%d) exhausted %d nodes with %d down", pick, size, len(down)))
}
