package experiments

import (
	"fmt"

	"coormv2/internal/apps"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/workload"
)

// FederatedReplayConfig parametrizes the federated workload scenario: a
// rigid-job trace split round-robin across N shard clusters, with an
// optional scavenging PSA per cluster (malleable) and an optional
// predictably-evolving application — the §4 application mix running
// against a sharded RMS instead of a single one.
type FederatedReplayConfig struct {
	// Jobs is the rigid trace. Jobs are assigned to shard clusters
	// round-robin; node counts are clamped to NodesPerShard.
	Jobs []workload.Job
	// Shards is the number of scheduler shards; the scenario creates one
	// cluster per shard so the federation never clamps.
	Shards int
	// NodesPerShard sizes each shard's cluster.
	NodesPerShard int
	// PSATaskDur, when positive, adds one scavenging PSA per cluster.
	PSATaskDur float64
	// Evolving, when non-empty, adds a fully-predictably evolving
	// application (§4) with these segments on the first cluster. Segment
	// node counts are clamped to NodesPerShard.
	Evolving []apps.Segment
}

// FederatedReplayResult aggregates one federated replay.
type FederatedReplayResult struct {
	Shards    int
	Nodes     int // federated node count (Shards × NodesPerShard)
	Completed int

	MeanWait float64 // rigid jobs: mean time between submit and start
	MaxWait  float64
	Makespan float64

	// ShardRigidArea is the rigid node·s placed on each shard.
	ShardRigidArea []float64
	// RigidUtilization is rigid area / (federated nodes × makespan).
	RigidUtilization float64
	// UsedFraction is the §5.3 used-resources metric over the whole
	// federation (rigid + PSA + evolving, minus PSA waste).
	UsedFraction float64

	Events int64
}

// evolvingWatch wraps the predictable-evolving app's handler to observe the
// start of its last segment (the app itself has no completion callback).
type evolvingWatch struct {
	*apps.PredictableEvolving
	onStart func(id request.ID, nodeIDs []int)
}

func (w *evolvingWatch) OnStart(id request.ID, nodeIDs []int) {
	w.PredictableEvolving.OnStart(id, nodeIDs)
	w.onStart(id, nodeIDs)
}

// RunFederatedReplay replays a rigid-job stream, split across shards,
// through a federated CooRMv2 RMS.
func RunFederatedReplay(cfg FederatedReplayConfig) (*FederatedReplayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.NodesPerShard <= 0 {
		return nil, fmt.Errorf("experiments: need a positive per-shard node count")
	}

	env := buildRMS(federatedClusters(cfg.Shards), cfg.NodesPerShard, cfg.Shards, federation.Config{})
	env.attachPSAPerCluster(cfg.PSATaskDur, nil)

	if len(cfg.Evolving) > 0 {
		segs := make([]apps.Segment, len(cfg.Evolving))
		copy(segs, cfg.Evolving)
		for i := range segs {
			segs[i].N = min(segs[i].N, cfg.NodesPerShard)
		}
		env.expect(1)
		ev := apps.NewPredictableEvolving(env.clk, federatedCluster(0), segs)
		last := len(segs) - 1
		watch := &evolvingWatch{PredictableEvolving: ev}
		watch.onStart = func(request.ID, []int) {
			if ev.SegmentStarted(last) {
				env.e.After(segs[last].Duration, "federated.evolving-end", env.done)
			}
		}
		ev.Attach(env.connect(watch))
		if err := ev.Submit(); err != nil {
			return nil, err
		}
	}

	run := env.submitRigid(rigidTrace{
		jobs: cfg.Jobs, event: "federated.submit",
		place: func(i int) (int, []rms.ConnectOption) { return i % cfg.Shards, nil },
	})
	if err := env.run("federated replay", maxReplayTime, nil); err != nil {
		return nil, err
	}

	st := run.stats()
	if st.completed != len(cfg.Jobs) {
		return nil, fmt.Errorf("experiments: federated replay completed %d of %d jobs", st.completed, len(cfg.Jobs))
	}
	res := &FederatedReplayResult{
		Shards:         cfg.Shards,
		Nodes:          cfg.Shards * cfg.NodesPerShard,
		Completed:      st.completed,
		MeanWait:       st.meanWait,
		MaxWait:        st.maxWait,
		Makespan:       env.e.Now(),
		ShardRigidArea: run.clusterArea,
		Events:         env.e.Processed(),
	}
	if res.Makespan > 0 {
		res.RigidUtilization = run.area / (float64(res.Nodes) * res.Makespan)
	}
	res.UsedFraction = env.agg.UsedFraction(res.Nodes, res.Makespan)
	return res, nil
}
