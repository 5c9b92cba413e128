package experiments

import (
	"reflect"
	"testing"

	"coormv2/internal/apps"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

func federatedTestJobs() []workload.Job {
	return workload.Synthetic(stats.NewRand(11), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 12, MeanInterArr: 90, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
}

func TestFederatedReplayCompletes(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		res, err := replay(replayConfig{
			Jobs:            federatedTestJobs(),
			Shards:          shards,
			NodesPerShard:   16,
			PSATaskDur:      120,
			Evolving:        []apps.Segment{{N: 4, Duration: 300}, {N: 8, Duration: 300}, {N: 2, Duration: 300}},
			EndTimerSettles: true,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Completed != 60 {
			t.Errorf("shards=%d: completed %d jobs, want 60", shards, res.Completed)
		}
		if res.Nodes != shards*16 {
			t.Errorf("shards=%d: result sizing %+v", shards, res)
		}
		if res.Makespan <= 0 || res.rigidUtilization() <= 0 {
			t.Errorf("shards=%d: degenerate result %+v", shards, res)
		}
		// The PSAs scavenge idle nodes, so used resources must exceed the
		// rigid jobs alone.
		if res.UsedFraction <= res.rigidUtilization() {
			t.Errorf("shards=%d: used fraction %v not above rigid utilization %v",
				shards, res.UsedFraction, res.rigidUtilization())
		}
		if len(res.ClusterRigidArea) != shards {
			t.Errorf("shards=%d: per-shard areas %v", shards, res.ClusterRigidArea)
		}
	}
}

func TestFederatedReplayDeterminism(t *testing.T) {
	cfg := replayConfig{
		Jobs:            federatedTestJobs(),
		Shards:          3,
		NodesPerShard:   16,
		PSATaskDur:      60,
		Evolving:        []apps.Segment{{N: 3, Duration: 200}, {N: 6, Duration: 200}},
		EndTimerSettles: true,
	}
	a, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical federated runs diverge:\n%+v\n%+v", a, b)
	}
}

func TestFederatedReplayRejectsBadConfig(t *testing.T) {
	if _, err := replay(replayConfig{Shards: 2, NodesPerShard: 8}); err == nil {
		t.Error("empty job stream should error")
	}
	if _, err := replay(replayConfig{
		Jobs: federatedTestJobs(), Shards: 2,
	}); err == nil {
		t.Error("missing node count should error")
	}
}
