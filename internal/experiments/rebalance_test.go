package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/tenants"
	"coormv2/internal/workload"
)

// rebalanceTestConfig builds the skewed-workload scenario: 3 shards × 2
// clusters, with 70% of the trace pinned to shard 0's clusters. With
// rebalance on, a Rebalancer checks load once a simulated minute.
func rebalanceTestConfig(seed int64, rebalance bool) replayConfig {
	jobs := workload.Synthetic(stats.NewRand(seed), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 8, MeanInterArr: 45, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
	cfg := replayConfig{
		Jobs:             jobs,
		Shards:           3,
		ClustersPerShard: 2,
		NodesPerShard:    16,
		HotJobFraction:   0.7,
		PSATaskDur:       120,
		Recovery:         federation.RequeueOnCrash,
	}
	if rebalance {
		cfg.Rebalance = &federation.RebalancerConfig{Interval: 60}
	}
	return cfg
}

// imbalance returns max/mean of the per-shard churn — 1.0 is a perfectly
// balanced federation.
func imbalance(churn []int64) float64 {
	var max, sum int64
	for _, c := range churn {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(churn)) / float64(sum)
}

// TestRebalanceReplayDeterministic pins the migration machinery into the
// determinism contract: same seed ⇒ byte-identical results including the
// migration trace and the event-stream fingerprint.
func TestRebalanceReplayDeterministic(t *testing.T) {
	a, err := replay(rebalanceTestConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(rebalanceTestConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
	if a.Migrations == 0 {
		t.Fatal("skewed scenario migrated nothing; the determinism check is vacuous")
	}
	if len(a.MigrationTrace) != a.Migrations {
		t.Fatalf("trace has %d lines for %d migrations", len(a.MigrationTrace), a.Migrations)
	}
}

// TestRebalanceDissolvesSkew runs the skewed trace with rebalancing off and
// on: both must complete every job, and rebalancing must leave the shard
// loads measurably flatter (cluster churn counters migrate with their
// cluster, so end-state per-shard churn reflects final ownership).
func TestRebalanceDissolvesSkew(t *testing.T) {
	off, err := replay(rebalanceTestConfig(11, false))
	if err != nil {
		t.Fatal(err)
	}
	on, err := replay(rebalanceTestConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	if off.Completed != 60 || on.Completed != 60 {
		t.Fatalf("completed off=%d on=%d, want 60/60", off.Completed, on.Completed)
	}
	if off.Migrations != 0 {
		t.Fatalf("rebalance-off run migrated %d clusters", off.Migrations)
	}
	if on.Migrations == 0 {
		t.Fatal("rebalance-on run migrated nothing under a 70% hot-shard skew")
	}
	offImb, onImb := imbalance(off.ShardChurn), imbalance(on.ShardChurn)
	if onImb >= offImb {
		t.Fatalf("rebalancing did not flatten load: imbalance off=%.3f on=%.3f (churn off=%v on=%v)",
			offImb, onImb, off.ShardChurn, on.ShardChurn)
	}
}

// TestChaosRebalanceMatrix is the chaos×migration matrix: seeded shard
// crashes and live cluster migrations interleave on the same deterministic
// event stream, under both recovery policies. Every run checks the
// federation invariants after every fault *and* every migration (a crash
// mid-topology-change must still leave each cluster placed exactly once),
// and same-seed runs must be byte-identical.
func TestChaosRebalanceMatrix(t *testing.T) {
	migrations := 0
	for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				mk := func() replayConfig {
					cfg := rebalanceTestConfig(seed, true)
					cfg.Recovery = pol
					cfg.Chaos = chaos.Config{
						Seed:             seed,
						MTTF:             900,
						MeanRestartDelay: 90,
						Horizon:          2500,
					}
					return cfg
				}
				res, err := replay(mk())
				if err != nil {
					t.Fatal(err)
				}
				checkMatrixGolden(t, res)
				if res.Crashes == 0 {
					t.Fatal("plan produced no crashes; matrix entry is vacuous")
				}
				if total := res.Completed + res.Killed + res.Rejected; total != 60 {
					t.Fatalf("jobs unaccounted for: %d completed + %d killed + %d rejected != 60",
						res.Completed, res.Killed, res.Rejected)
				}
				again, err := replay(mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("same seed diverged under chaos×migration:\nrun1: %+v\nrun2: %+v", res, again)
				}
				migrations += res.Migrations
			})
		}
	}
	if migrations == 0 {
		t.Fatal("no matrix entry migrated a cluster; the chaos×migration interleaving is untested")
	}
}

// TestChaosRebalanceMatrixDRF re-runs the chaos×migration matrix with the
// DRF queue hierarchy active: every shard orders applications by dominant
// share over a shared two-queue tree (prod guaranteed half of every
// cluster, batch best-effort), a third of the rigid trace is tagged prod
// and the scavenging PSAs ride untagged in the default queue — the natural
// quota-preemption victims. Crashes, restarts and live migrations
// interleave with the policy running; the federation invariant checker
// (which now also pins tenant-label agreement across shards) runs after
// every fault and migration, per-queue preemption attribution must resolve
// to known queues, and same-seed runs must stay byte-identical — the
// policy's ordering, admission and victim selection are all deterministic.
func TestChaosRebalanceMatrixDRF(t *testing.T) {
	tree, tenantOf := drfMatrixTenants()
	preempts := int64(0)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mk := func() replayConfig {
				cfg := rebalanceTestConfig(seed, true)
				cfg.Recovery = federation.RequeueOnCrash
				cfg.Chaos = chaos.Config{
					Seed:             seed,
					MTTF:             900,
					MeanRestartDelay: 90,
					Horizon:          2500,
				}
				cfg.Tenants, cfg.TenantOf = tree, tenantOf
				return cfg
			}
			res, err := replay(mk())
			if err != nil {
				t.Fatal(err)
			}
			checkMatrixGolden(t, res)
			if res.Crashes == 0 {
				t.Fatal("plan produced no crashes; matrix entry is vacuous")
			}
			if total := res.Completed + res.Killed + res.Rejected; total != 60 {
				t.Fatalf("jobs unaccounted for under DRF: %d completed + %d killed + %d rejected != 60",
					res.Completed, res.Killed, res.Rejected)
			}
			// Per-queue check: every preemption is attributed to a queue the
			// tree actually resolves (untagged PSAs file under "default").
			for q, n := range res.TenantPreempts {
				if tree.Resolve(q) == nil {
					t.Errorf("preemption tally names unknown queue %q", q)
				}
				if n < 0 {
					t.Errorf("negative preemption count %d for queue %q", n, q)
				}
				preempts += n
			}
			again, err := replay(mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("same seed diverged under chaos×migration with DRF:\nrun1: %+v\nrun2: %+v", res, again)
			}
		})
	}
	if preempts == 0 {
		t.Fatal("no matrix entry preempted for quota; the DRF×chaos interleaving is untested")
	}
}

// drfMatrixTenants is the DRF matrix's queue hierarchy and job tagging:
// prod guaranteed half of every rebalanceTestConfig cluster, batch
// best-effort, every third rigid job prod's.
func drfMatrixTenants() (*tenants.Tree, func(job int) string) {
	tree := tenants.NewTree()
	guarantee := tenants.Resources{}
	for i := 0; i < 6; i++ { // 3 shards × 2 clusters in rebalanceTestConfig
		guarantee[federatedCluster(i)] = 8
	}
	tree.MustAdd("prod", guarantee, nil)
	tree.MustAdd("batch", nil, nil)
	return tree, func(job int) string {
		if job%3 == 0 {
			return "prod"
		}
		return "batch"
	}
}

// TestIncrementalMatchesFullRecomputeChaosMatrix is the system-level half
// of the incremental-scheduling differential: the same seeded
// chaos×migration×node-fault replay — crashes, restarts, replay queues,
// live cluster migrations, machine failures/recoveries, per-fault invariant
// checks — runs with incremental recomputation on and off, and every result
// field must match byte for byte, including the fault trace, migration
// trace and the event-stream fingerprint. Cache invalidation across
// crash/restart/migration/capacity-change is the risky part of the
// incremental scheduler; this pins it end to end. The node-recovery policy
// cycles across the matrix so all three (kill/requeue/cooperative) hit the
// differential. Every entry runs twice, under FIFO and under the DRF
// hierarchy of TestChaosRebalanceMatrixDRF: a reordering policy keeps the
// round's caches keyed on its answer, so crash / restart / migration /
// quota preemption under DRF are compared against the oracle as well.
func TestIncrementalMatchesFullRecomputeChaosMatrix(t *testing.T) {
	tree, tenantOf := drfMatrixTenants()
	nodePols := []rms.NodeRecoveryPolicy{
		rms.KillOnNodeFailure, rms.RequeueOnNodeFailure, rms.CooperativeOnNodeFailure,
	}
	entry := 0
	nodeFaults := 0
	var preempts int64
	for _, seed := range []int64{7, 23} {
		for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
			nodePol := nodePols[entry%len(nodePols)]
			entry++
			for _, drf := range []bool{false, true} {
				cfg := rebalanceTestConfig(seed, true)
				cfg.Recovery = pol
				cfg.NodeRecovery = nodePol
				cfg.Chaos = chaos.Config{
					Seed: seed, MTTF: 900, MeanRestartDelay: 120, Horizon: 3000,
					NodeMTTF: 600, MeanNodeRecovery: 200,
				}
				if drf {
					cfg.Tenants, cfg.TenantOf = tree, tenantOf
				}

				inc, err := replay(cfg)
				if err != nil {
					t.Fatalf("seed %d %v drf=%v incremental: %v", seed, pol, drf, err)
				}
				cfg.FullRecompute = true
				full, err := replay(cfg)
				if err != nil {
					t.Fatalf("seed %d %v drf=%v full: %v", seed, pol, drf, err)
				}
				if !reflect.DeepEqual(inc, full) {
					t.Errorf("seed %d %v drf=%v: incremental run diverged from full recomputation\nincremental: %+v\nfull: %+v",
						seed, pol, drf, inc, full)
				}
				nodeFaults += inc.NodeFails
				for _, n := range inc.TenantPreempts {
					preempts += n
				}
			}
		}
	}
	if preempts == 0 {
		t.Fatal("no DRF entry preempted for quota; the reordering-policy differential is untested")
	}
	if nodeFaults == 0 {
		t.Fatal("no matrix entry injected node faults; the capacity-change differential is untested")
	}
}
