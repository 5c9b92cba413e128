package experiments

import (
	"testing"

	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/stats"
	"coormv2/internal/tenants"
	"coormv2/internal/workload"
)

func TestReplaySmallTrace(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Nodes: 8},
		{ID: 2, Submit: 10, Runtime: 100, Nodes: 8}, // must queue (8+8 > 10)
		{ID: 3, Submit: 20, Runtime: 50, Nodes: 2},  // backfills beside job 1
	}
	res, err := replay(replayConfig{Jobs: jobs, NodesPerShard: 10, EndTimerSettles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Job 2 waited for job 1 to end (~90 s); job 3 backfilled (~0 wait).
	if res.MaxWait < 80 || res.MaxWait > 120 {
		t.Errorf("max wait = %v, want ≈ 90 (queued job)", res.MaxWait)
	}
	if res.Makespan < 200 || res.Makespan > 230 {
		t.Errorf("makespan = %v, want ≈ 210", res.Makespan)
	}
	if u := res.rigidUtilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}

func TestReplaySyntheticWithPSA(t *testing.T) {
	jobs := workload.Synthetic(stats.NewRand(1), workload.SyntheticConfig{
		Jobs: 30, MaxNodes: 16, MeanInterArr: 120, MeanRuntime: 600,
	})
	base, err := replay(replayConfig{Jobs: jobs, NodesPerShard: 32, EndTimerSettles: true})
	if err != nil {
		t.Fatal(err)
	}
	filled, err := replay(replayConfig{Jobs: jobs, NodesPerShard: 32, PSATaskDur: 60, EndTimerSettles: true})
	if err != nil {
		t.Fatal(err)
	}
	if filled.Completed != 30 || base.Completed != 30 {
		t.Fatalf("jobs lost: %d / %d", base.Completed, filled.Completed)
	}
	// The scavenging PSA must add useful work without delaying rigid jobs
	// much (preemptible resources are reclaimed on demand).
	if filled.PSAUseful <= 0 {
		t.Error("PSA did no useful scavenging")
	}
	if filled.UsedFraction <= filled.rigidUtilization() {
		t.Error("utilization with PSA should exceed rigid-only utilization")
	}
	if filled.MeanWait > base.MeanWait*1.5+10 {
		t.Errorf("PSA delayed rigid jobs too much: %v vs %v", filled.MeanWait, base.MeanWait)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := replay(replayConfig{NodesPerShard: 10}); err == nil {
		t.Error("empty stream should error")
	}
	jobs := []workload.Job{{ID: 1, Submit: 0, Runtime: 10, Nodes: 99}}
	if _, err := replay(replayConfig{Jobs: jobs}); err == nil {
		t.Error("zero nodes should error")
	}
	// A job wider than its cluster is clamped to it, single RMS or not.
	for _, shards := range []int{0, 2} {
		res, err := replay(replayConfig{Jobs: jobs, Shards: shards, NodesPerShard: 10})
		if err != nil {
			t.Fatalf("shards=%d: oversized job: %v", shards, err)
		}
		if res.Completed != 1 || res.RigidArea != 10*10 {
			t.Errorf("shards=%d: completed %d, rigid area %v; want the job clamped to 10 nodes", shards, res.Completed, res.RigidArea)
		}
	}
	// The single RMS runs none of a federation's extensions.
	for name, cfg := range map[string]replayConfig{
		"fault plan": {Chaos: chaos.Config{Seed: 1}},
		"rebalancer": {Rebalance: &federation.RebalancerConfig{Interval: 60}},
		"DRF tree":   {Tenants: tenants.NewTree()},
	} {
		cfg.Jobs, cfg.NodesPerShard = jobs, 10
		if _, err := replay(cfg); err == nil {
			t.Errorf("single RMS with a %s should error", name)
		}
	}
}

func TestAccounting(t *testing.T) {
	static := mustRunScenario(t, figScenario(1, 2, apps.NEAStatic, 0, 60))
	dynamic := mustRunScenario(t, figScenario(1, 2, apps.NEADynamic, 0, 60))
	// Static: everything reserved is used (that is its inefficiency).
	if idle := max(static.AMRPreAllocArea-static.AMRArea, 0); idle != 0 {
		t.Errorf("static reserved-idle = %v, want 0", idle)
	}
	// Dynamic: substantial idle reservation, which the PSA filled.
	if dynamic.AMRPreAllocArea-dynamic.AMRArea <= 0 {
		t.Error("dynamic should have idle reservation")
	}
	if dynamic.AMRArea >= static.AMRArea {
		t.Errorf("dynamic used %v should undercut static %v at overcommit 2",
			dynamic.AMRArea, static.AMRArea)
	}
	if dynamic.PSAArea[0] <= 0 {
		t.Error("the PSA should have filled the dynamic AMR's idle reservation")
	}
}

func TestAblationPSA(t *testing.T) {
	var waste []float64
	for _, hook := range []func(*apps.PSA){
		nil,
		func(p *apps.PSA) { p.SetNoGraceful(true) },
		func(p *apps.PSA) { p.SetIgnoreWindows(true) },
		func(p *apps.PSA) { p.SetNoGraceful(true); p.SetIgnoreWindows(true) },
	} {
		cfg := figScenario(1, 1, apps.NEADynamic, 90, 60)
		cfg.PSAHook = hook
		waste = append(waste, mustRunScenario(t, cfg).PSAWaste[0])
	}
	full, noGrace := waste[0], waste[1]
	// With notice ≥ d_task the full PSA wastes nothing; without graceful
	// release it must kill tasks at every reclamation.
	if full > 1 {
		t.Errorf("full variant waste = %v, want ≈ 0", full)
	}
	if noGrace <= full {
		t.Errorf("disabling graceful release should increase waste: %v vs %v",
			noGrace, full)
	}
}
