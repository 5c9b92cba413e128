package chaos

import (
	"reflect"
	"testing"

	"coormv2/internal/view"
)

func nodeCfg(seed int64) Config {
	return Config{
		Seed:             seed,
		NodeMTTF:         50,
		MeanNodeRecovery: 20,
		Horizon:          1000,
	}
}

func TestPlanNodesDeterministic(t *testing.T) {
	clusters := map[view.ClusterID]int{"a": 8, "b": 8, "c": 16}
	p1 := PlanNodes(nodeCfg(42), clusters)
	p2 := PlanNodes(nodeCfg(42), clusters)
	if len(p1) == 0 {
		t.Fatal("empty plan")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different node plans")
	}
	p3 := PlanNodes(nodeCfg(43), clusters)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds produced identical node plans")
	}
}

func TestPlanNodesStableAcrossClusterSetGrowth(t *testing.T) {
	// A cluster's schedule depends only on (seed, cluster ID): adding
	// clusters — or re-partitioning them across any shard count — must not
	// perturb the existing clusters' faults.
	small := map[view.ClusterID]int{"a": 8, "b": 8}
	big := map[view.ClusterID]int{"a": 8, "b": 8, "c": 8, "d": 8}
	perCluster := func(plan []NodeFault) map[view.ClusterID][]NodeFault {
		out := make(map[view.ClusterID][]NodeFault)
		for _, f := range plan {
			out[f.Cluster] = append(out[f.Cluster], f)
		}
		return out
	}
	ps := perCluster(PlanNodes(nodeCfg(7), small))
	pb := perCluster(PlanNodes(nodeCfg(7), big))
	for cid := range small {
		if !reflect.DeepEqual(ps[cid], pb[cid]) {
			t.Fatalf("cluster %q schedule changed when the cluster set grew:\n%v\nvs\n%v", cid, ps[cid], pb[cid])
		}
	}
}

func TestPlanNodesNeverDoubleFailsANode(t *testing.T) {
	clusters := map[view.ClusterID]int{"a": 4, "b": 2}
	cfg := nodeCfg(11)
	cfg.NodeMTTF = 5          // dense failures
	cfg.MeanNodeRecovery = 50 // slow repairs: forces near-exhaustion
	plan := PlanNodes(cfg, clusters)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	type key struct {
		cid view.ClusterID
		id  int
	}
	downUntil := make(map[key]float64)
	for _, f := range plan {
		k := key{f.Cluster, f.Node}
		if until, ok := downUntil[k]; ok && f.FailAt < until {
			t.Fatalf("node %v fails at %g while still down until %g", k, f.FailAt, until)
		}
		if f.Node < 0 || f.Node >= clusters[f.Cluster] {
			t.Fatalf("node %d out of range for %q", f.Node, f.Cluster)
		}
		if f.RecoverAt < f.FailAt {
			t.Fatalf("recovery %g before failure %g", f.RecoverAt, f.FailAt)
		}
		downUntil[k] = f.RecoverAt
	}
}

func TestPlanNodesRespectsCaps(t *testing.T) {
	clusters := map[view.ClusterID]int{"a": 8, "b": 8}
	cfg := nodeCfg(3)
	plan := PlanNodes(cfg, clusters)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	for _, f := range plan {
		if f.FailAt >= cfg.Horizon {
			t.Fatalf("failure at %g beyond horizon %g", f.FailAt, cfg.Horizon)
		}
	}
	if PlanNodes(Config{Seed: 1, Horizon: 100}, clusters) != nil {
		t.Error("NodeMTTF == 0 must disable node faults")
	}
}
