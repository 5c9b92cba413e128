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

// TestPlanNodesNeverDoubleFailsANode also pins why pickUpNode's exhaustion
// panic is unreachable: PlanNodes draws pick < up = size − |down|, where down
// holds distinct node IDs below size, and skips the draw when up <= 0. The
// saturating case (2 nodes failing every second, repaired in ~10⁶ s) takes
// that branch at almost every draw of its horizon.
func TestPlanNodesNeverDoubleFailsANode(t *testing.T) {
	dense := nodeCfg(11)
	dense.NodeMTTF = 5          // dense failures
	dense.MeanNodeRecovery = 50 // slow repairs: forces near-exhaustion
	saturating := nodeCfg(11)
	saturating.NodeMTTF = 1
	saturating.MeanNodeRecovery = 1e6
	for _, tc := range []struct {
		name     string
		cfg      Config
		clusters map[view.ClusterID]int
	}{
		{"dense", dense, map[view.ClusterID]int{"a": 4, "b": 2}},
		{"saturating", saturating, map[view.ClusterID]int{"a": 2}},
	} {
		plan := PlanNodes(tc.cfg, tc.clusters)
		if len(plan) == 0 {
			t.Fatalf("%s: empty plan", tc.name)
		}
		type key struct {
			cid view.ClusterID
			id  int
		}
		downUntil := make(map[key]float64)
		maxDown := 0
		for _, f := range plan {
			k := key{f.Cluster, f.Node}
			if until, ok := downUntil[k]; ok && f.FailAt < until {
				t.Fatalf("%s: node %v fails at %g while still down until %g", tc.name, k, f.FailAt, until)
			}
			if f.Node < 0 || f.Node >= tc.clusters[f.Cluster] {
				t.Fatalf("%s: node %d out of range for %q", tc.name, f.Node, f.Cluster)
			}
			if f.RecoverAt < f.FailAt {
				t.Fatalf("%s: recovery %g before failure %g", tc.name, f.RecoverAt, f.FailAt)
			}
			downUntil[k] = f.RecoverAt
			down := 0
			for dk, until := range downUntil {
				if dk.cid == f.Cluster && until > f.FailAt {
					down++
				}
			}
			maxDown = max(maxDown, down)
		}
		// About Horizon/NodeMTTF = 1000 draws, all but a few with both
		// machines down.
		if tc.name == "saturating" && (maxDown != 2 || len(plan) > 10) {
			t.Errorf("saturating: %d faults, at most %d machines down at once; want both down and at most 10 faults", len(plan), maxDown)
		}
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
