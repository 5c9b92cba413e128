// Package experiments reproduces the paper's evaluation (§5): every figure
// with quantitative content has a preset that regenerates its data from the
// discrete-event simulation. The per-experiment index is the Experiments
// table (registry.go); measured numbers live in PERFORMANCE.md.
package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/stats"
	"coormv2/internal/view"
)

// ScenarioConfig describes one simulated run: one AMR application plus any
// number of PSAs on one cluster of exactly the AMR's pre-allocation size
// ceil(κ·n_eq) (§5.1.3: "for an overcommit factor of κ, having n = 1400·κ is
// sufficient").
type ScenarioConfig struct {
	// Seed drives the AMR profile generation.
	Seed int64
	// Steps is the AMR profile length (1000 in the paper; tests use less).
	Steps int
	// Smax is the AMR peak working-set size in MiB.
	Smax float64
	// TargetEff is the AMR's target efficiency (0.75 in the paper).
	TargetEff float64
	// Overcommit is the ratio between the user's pre-allocation guess and
	// the equivalent static allocation n_eq (§5.1.1).
	Overcommit float64
	// Mode selects the AMR behaviour: dynamic (CooRMv2) or static baseline.
	Mode apps.NEAMode
	// AnnounceInterval switches the AMR to announced updates (§5.3).
	AnnounceInterval float64
	// PSATaskDurations adds one PSA per entry with the given d_task.
	PSATaskDurations []float64
	// Policy selects the preemptible division policy (Fig. 11).
	Policy core.PreemptPolicy
	// PSAHook, when set, customizes each PSA right after creation
	// (the ablation preset's switches, diagnostics, test instrumentation).
	PSAHook func(p *apps.PSA)
	// Shards, when positive, runs the scenario through a
	// federation.Federator with that many shards instead of a single
	// rms.Server. The scenario has one cluster, so the federation clamps to
	// one shard — the point is exercising the whole routing/merging layer:
	// a 1-shard federation must reproduce the single-RMS run byte-for-byte
	// (see the differential test).
	Shards int
}

// ScenarioResult aggregates the §5 metrics of one run.
type ScenarioResult struct {
	Nodes int
	Neq   int // equivalent static allocation of the generated profile

	AMRArea    float64 // node·s effectively allocated to the AMR
	AMRRuntime float64 // AMR end-time minus start-time
	// AMRPreAllocArea is the node·s the AMR kept reserved (pre-allocated),
	// the basis of the §7 accounting extension.
	AMRPreAllocArea float64

	PSAArea  []float64 // node·s allocated per PSA
	PSAWaste []float64 // node·s wasted per PSA (killed tasks)

	// UsedFraction is the §5.3 metric over the AMR's makespan:
	// (allocated − waste) / (nodes × makespan).
	UsedFraction float64
	Makespan     float64

	Events int64 // simulator events processed (diagnostics)
}

// RunScenario builds the simulation, runs it until the AMR finishes and
// returns the metrics.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = amr.ProfileSteps
	}
	if cfg.Smax <= 0 {
		cfg.Smax = amr.DefaultSmax
	}
	if cfg.TargetEff <= 0 {
		cfg.TargetEff = 0.75
	}
	if cfg.Overcommit <= 0 {
		cfg.Overcommit = 1
	}

	params := amr.DefaultParams
	profile := amr.GenerateProfile(stats.NewRand(cfg.Seed), cfg.Steps, cfg.Smax)
	neq, _ := params.EquivalentStatic(profile, cfg.TargetEff)
	pre := max(int(math.Ceil(cfg.Overcommit*float64(neq))), 1)

	// The single large homogeneous cluster of the resource model (§5.1.3).
	const cluster = view.ClusterID("cluster")
	env := buildRMS([]view.ClusterID{cluster}, pre, cfg.Shards, federation.Config{Policy: cfg.Policy})
	nea := apps.NewNEA(env.clk, apps.NEAConfig{
		Cluster: cluster, Profile: profile, Params: params,
		TargetEff: cfg.TargetEff, PreAllocN: pre, Mode: cfg.Mode,
		AnnounceInterval: cfg.AnnounceInterval,
	})
	// The run is gated on the AMR alone: the clock freezes at its makespan so
	// every metric is evaluated over exactly the AMR's run, as in §5.
	env.expect(1)
	nea.OnFinish = env.done
	neaSess := env.connect(nea)
	nea.Attach(neaSess)
	if err := nea.Submit(); err != nil {
		return nil, err
	}

	psas := make([]*apps.PSA, len(cfg.PSATaskDurations))
	psaIDs := make([]int, len(cfg.PSATaskDurations))
	for i, d := range cfg.PSATaskDurations {
		psas[i], psaIDs[i] = env.attachPSA(cluster, d, cfg.PSAHook)
	}

	// 10^7 simulated seconds aborts a runaway scenario.
	err := env.run("simulation", 1e7, func() error {
		if nea.Err != nil {
			return fmt.Errorf("experiments: NEA error at step %d: %w", nea.Step(), nea.Err)
		}
		if killed, why := nea.Killed(); killed {
			return fmt.Errorf("experiments: NEA killed at step %d: %s", nea.Step(), why)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range psas {
		if p.Err != nil {
			return nil, fmt.Errorf("experiments: PSA error: %w", p.Err)
		}
		if killed, why := p.Killed(); killed {
			return nil, fmt.Errorf("experiments: PSA killed: %s", why)
		}
	}

	makespan := nea.EndTime
	res := &ScenarioResult{
		Nodes:           pre,
		Neq:             neq,
		AMRArea:         env.agg.Area(neaSess.AppID(), makespan),
		AMRRuntime:      nea.EndTime - nea.StartTime,
		AMRPreAllocArea: env.agg.PreAllocArea(neaSess.AppID(), makespan),
		Makespan:        makespan,
		Events:          env.e.Processed(),
	}
	for i, p := range psas {
		res.PSAArea = append(res.PSAArea, env.agg.Area(psaIDs[i], makespan))
		res.PSAWaste = append(res.PSAWaste, p.Waste())
	}
	res.UsedFraction = env.agg.UsedFraction(pre, makespan)
	return res, nil
}
