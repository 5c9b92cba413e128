package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

// gangTestConfig is chaosTestConfig plus cross-shard gangs: half the rigid
// jobs get a companion leg on the next shard's cluster, so every run drives
// the two-phase reservation coordinator through the same fault plan the
// plain chaos matrix uses.
func gangTestConfig(seed int64, pol federation.RecoveryPolicy) replayConfig {
	cfg := chaosTestConfig(seed, pol)
	cfg.GangFraction = 0.5
	return cfg
}

// gangMigrationTestConfig layers gangs onto the skewed rebalancing scenario:
// 3 shards × 2 clusters with a live Rebalancer, so holds and commits
// interleave with cluster migrations *and* crash/restart faults.
func gangMigrationTestConfig(seed int64, pol federation.RecoveryPolicy) replayConfig {
	cfg := rebalanceTestConfig(seed, true)
	cfg.Recovery = pol
	cfg.GangFraction = 0.5
	cfg.Chaos = chaos.Config{
		Seed:             seed,
		MTTF:             900,
		MeanRestartDelay: 90,
		Horizon:          2500,
	}
	return cfg
}

// TestGangChaosMatrix is the headline satellite: crash participant and
// coordinator shards between hold and commit across 3 seeds × both recovery
// policies. replay checks federation invariants after every fault
// and once post-run — no leaked holds, no half-committed gangs — and the
// test pins job accounting plus same-seed byte-identical results (fault
// trace, gang counters, and the FNV event-stream fingerprint).
func TestGangChaosMatrix(t *testing.T) {
	committed := 0
	for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				cfg := gangTestConfig(seed, pol)
				res, err := replay(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkMatrixGolden(t, res)
				if res.Crashes == 0 {
					t.Fatal("plan produced no crashes; matrix entry is vacuous")
				}
				total := res.Completed + res.Killed + res.Rejected
				if total != len(cfg.Jobs) {
					t.Fatalf("jobs unaccounted for: %d completed + %d killed + %d rejected != %d",
						res.Completed, res.Killed, res.Rejected, len(cfg.Jobs))
				}
				again, err := replay(gangTestConfig(seed, pol))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("same seed diverged under chaos×gang:\nrun1: %+v\nrun2: %+v", res, again)
				}
				committed += res.GangsCommitted
			})
		}
	}
	if committed == 0 {
		t.Fatal("no gang committed anywhere in the matrix — the reservation path was never exercised")
	}
}

// TestGangChaosMigrationMatrix interleaves all three mechanisms: two-phase
// reservations, live cluster migration (rebalancer), and shard crashes.
// Invariants are checked inside replay after every fault; the test
// adds determinism and coverage (both gangs and migrations must happen
// somewhere in the matrix).
func TestGangChaosMigrationMatrix(t *testing.T) {
	committed, migrations := 0, 0
	for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				cfg := gangMigrationTestConfig(seed, pol)
				res, err := replay(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkMatrixGolden(t, res)
				total := res.Completed + res.Killed + res.Rejected
				if total != len(cfg.Jobs) {
					t.Fatalf("jobs unaccounted for: %d completed + %d killed + %d rejected != %d",
						res.Completed, res.Killed, res.Rejected, len(cfg.Jobs))
				}
				again, err := replay(gangMigrationTestConfig(seed, pol))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("same seed diverged under chaos×migration×gang:\nrun1: %+v\nrun2: %+v", res, again)
				}
				committed += res.GangsCommitted
				migrations += res.Migrations
			})
		}
	}
	if committed == 0 {
		t.Fatal("no gang committed anywhere in the matrix")
	}
	if migrations == 0 {
		t.Fatal("no migration happened anywhere in the matrix — the interleaving is vacuous")
	}
}

// TestGangZeroFaultPlan pins the fault-free baseline: with gangs on and an
// empty fault plan every job completes, at least one gang commits, and no
// gang is ever aborted by the coordinator's crash paths.
func TestGangZeroFaultPlan(t *testing.T) {
	cfg := gangTestConfig(7, federation.KillOnCrash)
	cfg.Chaos = chaos.Config{}
	res, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(cfg.Jobs) {
		t.Fatalf("completed %d of %d jobs without faults", res.Completed, len(cfg.Jobs))
	}
	if res.GangsCommitted == 0 {
		t.Fatal("no gang committed in a fault-free run")
	}
}

// TestGangSingleShardNeverEngagesCoordinator is the shards=1 differential:
// with every cluster on one shard a "gang" companion is an ordinary
// same-shard relation, so the reservation machinery must stay cold — the
// gang counters never move — while the run still completes and stays
// deterministic. (The byte-level single-RMS equivalence for relation-free
// traces lives in federated_differential_test.go; this pins that relations
// don't open a gap at Shards == 1.)
func TestGangSingleShardNeverEngagesCoordinator(t *testing.T) {
	jobs := workload.Synthetic(stats.NewRand(9), workload.SyntheticConfig{
		Jobs: 40, MaxNodes: 6, MeanInterArr: 45, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
	cfg := replayConfig{
		Jobs:             jobs,
		Shards:           1,
		ClustersPerShard: 2,
		NodesPerShard:    16,
		PSATaskDur:       120,
		GangFraction:     0.5,
		Recovery:         federation.RequeueOnCrash,
		Chaos:            chaos.Config{Seed: 9}, // MTTF 0 ⇒ empty fault plan
	}
	res, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GangsCommitted != 0 || res.GangsAborted != 0 || res.GangsRetried != 0 {
		t.Fatalf("single-shard run engaged the gang coordinator: %+v", res)
	}
	if res.Completed != len(cfg.Jobs) {
		t.Fatalf("completed %d of %d jobs", res.Completed, len(cfg.Jobs))
	}
	again, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("single-shard gang run diverged:\nrun1: %+v\nrun2: %+v", res, again)
	}
}
