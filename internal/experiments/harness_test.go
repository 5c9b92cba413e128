package experiments

import (
	"testing"

	"coormv2/internal/workload"
)

// TestSparseTraceCompletes pins the replay's one stall rule under the settings
// of each preset: an event-free hour is an idle gap as long as something is
// still queued. The
// two jobs are 20,000 s apart with nothing in between (no PSA), so several
// one-hour windows pass without a single event.
func TestSparseTraceCompletes(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
		{ID: 2, Submit: 20000, Runtime: 100, Nodes: 4},
	}
	presets := map[string]replayConfig{
		"replay":    {NodesPerShard: 8, EndTimerSettles: true},
		"federated": {Shards: 2, NodesPerShard: 8, EndTimerSettles: true},
		"chaos":     {Shards: 2, NodesPerShard: 8},
		"tenants":   tenantMix{tenants: 2, shards: 2, nodes: 8}.config(0, false),
	}
	for name, cfg := range presets {
		cfg.Jobs = jobs
		res, err := replay(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if res.Completed != 2 || res.Makespan < 20100 {
			t.Errorf("%s: completed %d of 2 jobs, makespan %v", name, res.Completed, res.Makespan)
		}
	}
}
