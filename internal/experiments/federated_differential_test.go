package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/transport"
	"coormv2/internal/workload"
)

// A 1-shard federation must be indistinguishable from a single RMS: same
// federated/single application and request ID sequences, same event
// ordering on the shared virtual clock, same schedules, same metrics. The
// tests below run the existing experiment scenarios both ways and require
// the results — including the simulator event count, the strictest
// available proxy for "same schedule" — to match exactly, and the
// figure-pipeline tables rendered from them to match byte for byte.
//
// Every experiment runs a Federator, so the single-RMS reference is built
// here: withBareRMS swaps each environment's connect for a bare rms.Server
// on the same clock and client recorder. The environment's federation stays
// idle — an idle Federator arms no timer — so the run's events are the bare
// server's alone, and the post-run federation reads see nothing.

// withBareRMS runs f with every environment buildRMS creates connecting its
// applications to a bare rms.Server configured as the federation's single
// shard would be. The server draws application and request IDs from 1, one
// counter each, as the Federator does.
func withBareRMS(f func()) {
	envHook = func(env *simEnv, fc federation.Config) {
		srv := rms.NewServer(rms.Config{
			Clusters: env.clusters, ReschedInterval: fc.ReschedInterval, Clock: env.clk,
			Policy: fc.Policy, NodeRecovery: fc.NodeRecovery, FullRecompute: fc.FullRecompute,
			Metrics: env.rec,
		})
		var apps int
		var reqs request.ID
		env.connect = func(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session {
			apps++
			sess, err := srv.ConnectID(h, apps, opts...)
			if err != nil {
				panic(err)
			}
			return bareSession{sess, &reqs}
		}
	}
	defer func() { envHook = nil }()
	f()
}

// bareSession is a bare server's session with request() drawing the ID from
// the server's counter.
type bareSession struct {
	*rms.Session
	last *request.ID
}

func (b bareSession) Request(spec rms.RequestSpec) (request.ID, error) {
	*b.last++
	id := *b.last
	if err := b.RequestID(spec, id, nil); err != nil {
		return 0, err
	}
	return id, nil
}

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
			var single *ScenarioResult
			var err error
			withBareRMS(func() { single, err = RunScenario(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			fed, err := RunScenario(cfg)
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
			var single *replayResult
			var err error
			withBareRMS(func() { single, err = replay(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			fed, err := replay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The reference's shard churn is the idle federation's; the
			// tenant tallies are empty on both sides.
			single.ShardChurn, fed.ShardChurn = nil, nil
			if !reflect.DeepEqual(single, fed) {
				t.Errorf("federated replay diverges:\nsingle: %+v\nfed:    %+v", single, fed)
			}
		})
	}
}
