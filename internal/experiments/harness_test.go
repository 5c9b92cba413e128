package experiments

import (
	"testing"

	"coormv2/internal/workload"
)

// TestSparseTraceCompletes pins the one stall rule every harness shares: an
// event-free hour is an idle gap as long as something is still queued. The
// two jobs are 20,000 s apart with nothing in between (no PSA), so several
// one-hour windows pass without a single event.
func TestSparseTraceCompletes(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
		{ID: 2, Submit: 20000, Runtime: 100, Nodes: 4},
	}
	harnesses := map[string]func() (completed int, makespan float64, err error){
		"replay": func() (int, float64, error) {
			res, err := RunReplay(ReplayConfig{Jobs: jobs, Nodes: 8})
			if err != nil {
				return 0, 0, err
			}
			return res.Completed, res.Makespan, nil
		},
		"federated": func() (int, float64, error) {
			res, err := RunFederatedReplay(FederatedReplayConfig{Jobs: jobs, Shards: 2, NodesPerShard: 8})
			if err != nil {
				return 0, 0, err
			}
			return res.Completed, res.Makespan, nil
		},
		"chaos": func() (int, float64, error) {
			res, err := RunChaosReplay(ChaosReplayConfig{Jobs: jobs, Shards: 2, NodesPerShard: 8})
			if err != nil {
				return 0, 0, err
			}
			return res.Completed, res.Makespan, nil
		},
		"tenants": func() (int, float64, error) {
			res, err := RunTenantsReplay(TenantsReplayConfig{Jobs: jobs, Tenants: 2, Shards: 2, NodesPerShard: 8})
			if err != nil {
				return 0, 0, err
			}
			return res.Tenants[0].Completed + res.Tenants[1].Completed, res.Makespan, nil
		},
	}
	for name, run := range harnesses {
		completed, makespan, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if completed != 2 || makespan < 20100 {
			t.Errorf("%s: completed %d of 2 jobs, makespan %v", name, completed, makespan)
		}
	}
}
