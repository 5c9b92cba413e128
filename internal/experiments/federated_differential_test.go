package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

// A 1-shard federation must be indistinguishable from a single RMS: same
// federated/single application and request ID sequences, same event
// ordering on the shared virtual clock, same schedules, same metrics. The
// tests below run the existing experiment scenarios both ways and require
// the results — including the simulator event count, the strictest
// available proxy for "same schedule" — to match exactly, and the
// figure-pipeline tables rendered from them to match byte for byte.

func diffConfigs() map[string]ScenarioConfig {
	return map[string]ScenarioConfig{
		"dynamic+psa": {
			Seed: 1, Steps: 40, Smax: 30 * 1024, Overcommit: 1.5,
			Mode: apps.NEADynamic, PSATaskDurations: []float64{60},
		},
		"static": {
			Seed: 2, Steps: 40, Smax: 30 * 1024, Overcommit: 1,
			Mode: apps.NEAStatic,
		},
		"announced+2psas": {
			Seed: 3, Steps: 40, Smax: 30 * 1024, Overcommit: 1.25,
			Mode: apps.NEADynamic, AnnounceInterval: 30,
			PSATaskDurations: []float64{90, 12},
			Policy:           core.StrictEquiPartition,
		},
	}
}

func TestOneShardFederationMatchesSingleRMSScenarios(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			single, err := RunScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fedCfg := cfg
			fedCfg.Shards = 1
			fed, err := RunScenario(fedCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single, fed) {
				t.Errorf("federated result diverges from single RMS:\nsingle: %+v\nfed:    %+v", single, fed)
			}
			// The figure pipeline renders from these results; byte-compare
			// the rendered rows as the pipeline would emit them.
			if s, f := scenarioTable(single), scenarioTable(fed); s != f {
				t.Errorf("figure table diverges:\nsingle:\n%s\nfed:\n%s", s, f)
			}
		})
	}
}

// scenarioTable renders a ScenarioResult the way cmd/coorm-exp renders
// figure rows (formatTable over formatted floats).
func scenarioTable(r *ScenarioResult) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }
	row := []string{
		strconv.Itoa(r.Nodes), strconv.Itoa(r.Neq),
		g(r.AMRArea), g(r.AMRRuntime), g(r.AMRPreAllocArea),
		g(r.UsedFraction), g(r.Makespan), strconv.FormatInt(r.Events, 10),
	}
	header := []string{"nodes", "neq", "amr-area", "amr-runtime",
		"prealloc-area", "used", "makespan", "events"}
	for i := range r.PSAArea {
		row = append(row, g(r.PSAArea[i]), g(r.PSAWaste[i]))
		header = append(header, "psa"+strconv.Itoa(i)+"-area", "psa"+strconv.Itoa(i)+"-waste")
	}
	return formatTable(header, [][]string{row})
}

func TestOneShardFederationMatchesSingleRMSReplay(t *testing.T) {
	jobs := workload.Synthetic(stats.NewRand(7), workload.SyntheticConfig{
		Jobs: 40, MaxNodes: 16, MeanInterArr: 120, MeanRuntime: 900,
		PowerOfTwoBias: 0.5,
	})
	for _, fill := range []bool{false, true} {
		name := "rigid"
		if fill {
			name = "rigid+psa"
		}
		t.Run(name, func(t *testing.T) {
			cfg := replayConfig{Jobs: jobs, NodesPerShard: 32, EndTimerSettles: true}
			if fill {
				cfg.PSATaskDur = 120
			}
			single, err := replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 1
			fed, err := replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Only a federation reports shard churn and tenant tallies.
			fed.ShardChurn, fed.TenantPreempts = nil, nil
			if !reflect.DeepEqual(single, fed) {
				t.Errorf("federated replay diverges:\nsingle: %+v\nfed:    %+v", single, fed)
			}
		})
	}
}
