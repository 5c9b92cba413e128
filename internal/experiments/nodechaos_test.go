package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

// nodeChaosTestConfig isolates node-level faults: shard MTTF is zero (no
// crashes), while machines fail and recover on a seeded renewal process
// aggressive enough that several started allocations always lose nodes.
func nodeChaosTestConfig(seed int64, pol rms.NodeRecoveryPolicy) replayConfig {
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
		NodeRecovery:  pol,
		Chaos: chaos.Config{
			Seed:             seed,
			NodeMTTF:         300,
			MeanNodeRecovery: 150,
			Horizon:          2500,
		},
	}
}

var nodePolicies = []rms.NodeRecoveryPolicy{
	rms.KillOnNodeFailure,
	rms.RequeueOnNodeFailure,
	rms.CooperativeOnNodeFailure,
}

// TestNodeChaosDeterministic extends the determinism contract to machine
// faults: under every recovery policy, two same-seed runs are byte-identical
// — fault trace, node-fault counters, lost-work accounting and the
// event-stream fingerprint — while a different seed diverges.
func TestNodeChaosDeterministic(t *testing.T) {
	for _, pol := range nodePolicies {
		t.Run(pol.String(), func(t *testing.T) {
			a, err := replay(nodeChaosTestConfig(42, pol))
			if err != nil {
				t.Fatal(err)
			}
			b, err := replay(nodeChaosTestConfig(42, pol))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\nrun1: %+v\nrun2: %+v", a, b)
			}
			if a.NodeFails == 0 {
				t.Fatal("plan injected no node faults; the determinism check is vacuous")
			}
			if a.Crashes != 0 {
				t.Fatalf("shard MTTF is zero but %d shards crashed", a.Crashes)
			}
			c, err := replay(nodeChaosTestConfig(43, pol))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.Trace, c.Trace) && a.EventHash == c.EventHash {
				t.Fatal("different seeds produced an identical run")
			}
		})
	}
}

// TestNodeChaosInvariantMatrix is the node-fault half of the CI chaos
// matrix: three seeds × the three recovery policies. replay checks
// the federation invariants (node accounting included: free + held + failed
// must always partition each cluster) after every injected fault; the test
// adds the per-policy contracts on job fates and action counters.
func TestNodeChaosInvariantMatrix(t *testing.T) {
	for _, pol := range nodePolicies {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				cfg := nodeChaosTestConfig(seed, pol)
				res, err := replay(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkMatrixGolden(t, res)
				if res.NodeFails == 0 {
					t.Fatal("plan injected no node faults; matrix entry is vacuous")
				}
				total := res.Completed + res.Killed + res.Rejected
				if total != len(cfg.Jobs) {
					t.Fatalf("jobs unaccounted for: %d completed + %d killed + %d rejected != %d",
						res.Completed, res.Killed, res.Rejected, len(cfg.Jobs))
				}
				switch pol {
				case rms.KillOnNodeFailure:
					// Non-preemptible allocations die with their machines;
					// only scavenging PSAs (always reduced) survive faults.
					if res.NodeRequeued != 0 {
						t.Fatalf("kill policy requeued %d requests", res.NodeRequeued)
					}
					if res.NodeKilled == 0 || res.Killed == 0 {
						t.Fatalf("kill policy never killed anything: %+v", res)
					}
				case rms.RequeueOnNodeFailure:
					if res.NodeKilled != 0 || res.Killed != 0 {
						t.Fatalf("requeue policy killed requests/jobs: %+v", res)
					}
					if res.NodeRequeued == 0 {
						t.Fatal("requeue policy requeued nothing — recovery path not exercised")
					}
					if res.Completed != len(cfg.Jobs) {
						t.Fatalf("requeue completed %d of %d jobs", res.Completed, len(cfg.Jobs))
					}
				case rms.CooperativeOnNodeFailure:
					// Every application in this scenario checkpoints, so no
					// request is ever killed or blindly requeued.
					if res.NodeKilled != 0 || res.NodeRequeued != 0 {
						t.Fatalf("cooperative policy fell back to kill/requeue: %+v", res)
					}
					if res.NodeReduced == 0 {
						t.Fatal("cooperative policy reduced nothing — recovery path not exercised")
					}
					if res.Completed != len(cfg.Jobs) {
						t.Fatalf("cooperative completed %d of %d jobs", res.Completed, len(cfg.Jobs))
					}
				}
			})
		}
	}
}

// TestNodeChaosWasteComparison pins the qualitative waste ordering that
// motivates cooperative recovery (the paper's §3.1.4 argument): killing
// loses all elapsed work and the job, blind requeueing repeats it, while a
// checkpointing application resubmits only the remainder and loses
// (approximately) nothing. Summed over three seeds, cooperative lost work
// must be strictly below both alternatives, and the checkpoint path must
// actually run (resubmissions observed).
func TestNodeChaosWasteComparison(t *testing.T) {
	lost := make(map[rms.NodeRecoveryPolicy]float64, len(nodePolicies))
	resubmits := 0
	for _, pol := range nodePolicies {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := replay(nodeChaosTestConfig(seed, pol))
			if err != nil {
				t.Fatalf("%v seed %d: %v", pol, seed, err)
			}
			lost[pol] += res.LostWork
			if pol == rms.CooperativeOnNodeFailure {
				resubmits += res.Resubmits
			}
		}
	}
	if lost[rms.KillOnNodeFailure] <= 0 || lost[rms.RequeueOnNodeFailure] <= 0 {
		t.Fatalf("kill/requeue lost no work (kill=%.0f requeue=%.0f); comparison is vacuous",
			lost[rms.KillOnNodeFailure], lost[rms.RequeueOnNodeFailure])
	}
	coop := lost[rms.CooperativeOnNodeFailure]
	if coop >= lost[rms.KillOnNodeFailure] || coop >= lost[rms.RequeueOnNodeFailure] {
		t.Fatalf("cooperative recovery did not reduce lost work: coop=%.0f kill=%.0f requeue=%.0f",
			coop, lost[rms.KillOnNodeFailure], lost[rms.RequeueOnNodeFailure])
	}
	if resubmits == 0 {
		t.Fatal("cooperative runs never resubmitted — the checkpoint path did not run")
	}
}

// TestNodeChaosWithShardCrashes interleaves machine faults with shard
// crashes and restarts on the same deterministic event stream: node faults
// landing on a crashed shard are recorded in its pools and stay in force
// when it restarts, and the whole composition must stay byte-identical
// across same-seed runs
// with the invariants holding after every event of either kind.
func TestNodeChaosWithShardCrashes(t *testing.T) {
	crashes, nodeFails := 0, 0
	for _, pol := range nodePolicies {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				mk := func() replayConfig {
					cfg := nodeChaosTestConfig(seed, pol)
					cfg.Chaos.MTTF = 700
					cfg.Chaos.MeanRestartDelay = 90
					return cfg
				}
				res, err := replay(mk())
				if err != nil {
					t.Fatal(err)
				}
				total := res.Completed + res.Killed + res.Rejected
				if total != 60 {
					t.Fatalf("jobs unaccounted for: %d completed + %d killed + %d rejected != 60",
						res.Completed, res.Killed, res.Rejected)
				}
				again, err := replay(mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("same seed diverged under node×shard chaos:\nrun1: %+v\nrun2: %+v", res, again)
				}
				crashes += res.Crashes
				nodeFails += res.NodeFails
			})
		}
	}
	if crashes == 0 || nodeFails == 0 {
		t.Fatalf("matrix exercised %d crashes and %d node faults; both kinds must interleave", crashes, nodeFails)
	}
}
