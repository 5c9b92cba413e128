package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/apps"
	"coormv2/internal/federation"
	"coormv2/internal/rms"
	"coormv2/internal/view"
	"coormv2/internal/workload"
)

// ReplayConfig parametrizes a rigid-job trace replay. The paper does not
// evaluate rigid traces ("as is commonly done in the community", §5.1) but
// CooRMv2 supports them (§4); the replay harness demonstrates that support
// and doubles as a CBF sanity check against a classic workload.
type ReplayConfig struct {
	Jobs  []workload.Job
	Nodes int
	// FillWithPSA adds one PSA that scavenges idle nodes preemptibly,
	// showing the malleable-fill gain on a rigid trace.
	FillWithPSA bool
	PSATaskDur  float64
	// Shards, when positive, replays through a federation.Federator (see
	// ScenarioConfig.Shards).
	Shards int
}

// ReplayResult aggregates replay statistics.
type ReplayResult struct {
	Completed   int
	MeanWait    float64 // mean time between submit and start
	MaxWait     float64
	Makespan    float64
	Utilization float64 // rigid-job area / (nodes × makespan)
	// PSAUseful is the node·s the scavenging PSA computed (0 without it).
	PSAUseful float64
	// UtilizationWithPSA includes the PSA's useful work.
	UtilizationWithPSA float64
}

// RunReplay replays a rigid-job stream through a CooRMv2 RMS.
func RunReplay(cfg ReplayConfig) (*ReplayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("experiments: need a positive node count")
	}
	for _, j := range cfg.Jobs {
		if j.Nodes > cfg.Nodes {
			return nil, fmt.Errorf("experiments: job %d needs %d nodes, cluster has %d", j.ID, j.Nodes, cfg.Nodes)
		}
	}
	if cfg.PSATaskDur <= 0 {
		cfg.PSATaskDur = 600
	}

	env := buildRMS([]view.ClusterID{Cluster}, cfg.Nodes, cfg.Shards, federation.Config{})
	var psa *apps.PSA
	var psaID int
	if cfg.FillWithPSA {
		psa, psaID = env.attachPSA(Cluster, cfg.PSATaskDur, nil)
	}
	run := env.submitRigid(rigidTrace{
		jobs: cfg.Jobs, event: "replay.submit",
		place: func(int) (int, []rms.ConnectOption) { return 0, nil },
	})
	if err := env.run("replay", maxReplayTime, nil); err != nil {
		return nil, err
	}

	st := run.stats()
	if st.completed != len(cfg.Jobs) {
		return nil, fmt.Errorf("experiments: replay completed %d of %d jobs", st.completed, len(cfg.Jobs))
	}
	res := &ReplayResult{
		Completed: st.completed, MeanWait: st.meanWait, MaxWait: st.maxWait,
		Makespan: env.e.Now(),
	}
	capacity := float64(cfg.Nodes) * res.Makespan
	if res.Makespan > 0 {
		res.Utilization = run.area / capacity
	}
	res.UtilizationWithPSA = res.Utilization
	if psa != nil {
		res.PSAUseful = math.Max(0, env.agg.Area(psaID, res.Makespan)-psa.Waste())
		if res.Makespan > 0 {
			res.UtilizationWithPSA = (run.area + res.PSAUseful) / capacity
		}
	}
	if math.IsNaN(res.Utilization) {
		return nil, fmt.Errorf("experiments: degenerate replay result")
	}
	return res, nil
}
