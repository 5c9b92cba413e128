package experiments

import (
	"bytes"
	"strings"
	"testing"

	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

// obsChaosConfig is the chaos scenario under full observability: shard and
// node faults, so every recording point — round latency, admit→start wait,
// reap lag, outage, node repair — fires at least once.
func obsChaosConfig(seed int64, reg *obs.Registry) replayConfig {
	jobs := workload.Synthetic(stats.NewRand(seed), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 8, MeanInterArr: 45, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
	return replayConfig{
		Jobs:          jobs,
		Shards:        3,
		NodesPerShard: 16,
		PSATaskDur:    120,
		Recovery:      federation.RequeueOnCrash,
		NodeRecovery:  rms.RequeueOnNodeFailure,
		Chaos: chaos.Config{
			Seed:             seed,
			MTTF:             700,
			MeanRestartDelay: 90,
			Horizon:          2500,
			NodeMTTF:         900,
			MeanNodeRecovery: 150,
		},
		Obs: reg,
	}
}

// TestObsSnapshotDeterministic pins the observability layer into the
// determinism contract: two same-seed chaos replays produce byte-identical
// snapshot JSON — histograms, flattened counters, and the structured event
// ring included. Durations are measured on the simulated clock and sim-time
// latencies are pure functions of the seed, so nothing in the snapshot may
// depend on wall time.
func TestObsSnapshotDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		reg := obs.NewRegistry()
		res, err := replay(obsChaosConfig(seed, reg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot == nil {
			t.Fatal("Obs was set but the result carries no snapshot")
		}
		js, err := res.Snapshot.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different snapshots:\n%s\n----\n%s", a, b)
	}
	c := run(43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced an identical snapshot")
	}
}

// TestObsSnapshotCoverage checks that the chaos replay actually exercises
// every advertised recording point: the snapshot must carry non-empty wait,
// round, reap, outage and node-repair histograms, the per-shard sched
// and rms counter groups and the federation's, and crash/restart/node events in the ring.
func TestObsSnapshotCoverage(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := replay(obsChaosConfig(42, reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot
	for _, h := range []string{
		"shard0.rms.round_seconds",
		"shard0.rms.wait_seconds",
		"shard0.rms.reap_lag_seconds",
		"fed.outage_seconds",
		"chaos.recovery_seconds",
		"chaos.node_recovery_seconds",
	} {
		st, ok := snap.Histograms[h]
		if !ok {
			t.Fatalf("snapshot is missing histogram %q (have %v)", h, histNames(snap))
		}
		if st.Count == 0 {
			t.Errorf("histogram %q recorded nothing", h)
		}
	}
	wantCounterPrefixes := []string{"shard0.sched.", "shard0.rms.", "fed."}
	for _, p := range wantCounterPrefixes {
		found := false
		for k := range snap.Counters {
			if strings.HasPrefix(k, p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no counter with prefix %q in snapshot", p)
		}
	}
	types := make(map[string]int)
	for _, ev := range snap.Events {
		types[ev.Type]++
	}
	for _, want := range []string{obs.EvRound, obs.EvStart, obs.EvCrash, obs.EvRestart, obs.EvNodeFail, obs.EvNodeRecover} {
		if types[want] == 0 && snap.EventsTotal <= uint64(len(snap.Events)) {
			// Only assert when the ring did not wrap: a wrapped ring may have
			// evicted early one-off events (crashes land long before the tail
			// of round events).
			t.Errorf("no %q event in ring (types: %v)", want, types)
		}
	}
	if snap.EventsTotal == 0 {
		t.Fatal("no events recorded at all")
	}
}

func histNames(s *obs.Snapshot) []string {
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	return names
}
