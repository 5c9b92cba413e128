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

// chaosTestConfig builds a reduced-scale chaos scenario: 60 rigid jobs over
// 3 shards with one scavenging PSA per shard and an aggressive fault plan
// (MTTF well under the trace span, so several crashes always happen).
func chaosTestConfig(seed int64, pol federation.RecoveryPolicy) ChaosReplayConfig {
	jobs := workload.Synthetic(stats.NewRand(seed), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 8, MeanInterArr: 45, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
	return ChaosReplayConfig{
		Jobs:          jobs,
		Shards:        3,
		NodesPerShard: 16,
		PSATaskDur:    120,
		Recovery:      pol,
		Chaos: chaos.Config{
			Seed:             seed,
			MTTF:             700,
			MeanRestartDelay: 90,
			Horizon:          2500,
		},
	}
}

// TestChaosReplayDeterministic is the headline determinism contract: two
// runs with the same seed produce identical results — the complete fault
// trace, the FNV fingerprint of every simulator event fired, and every
// metric — while a different seed produces a different fault history.
func TestChaosReplayDeterministic(t *testing.T) {
	for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
		t.Run(pol.String(), func(t *testing.T) {
			a, err := RunChaosReplay(chaosTestConfig(42, pol))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChaosReplay(chaosTestConfig(42, pol))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\nrun1: %+v\nrun2: %+v", a, b)
			}
			if a.Crashes == 0 {
				t.Fatal("test plan produced no crashes; the determinism check is vacuous")
			}
			c, err := RunChaosReplay(chaosTestConfig(43, pol))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.Trace, c.Trace) && a.EventHash == c.EventHash {
				t.Fatal("different seeds produced an identical run")
			}
		})
	}
}

// TestChaosInvariantMatrix is the CI chaos matrix: three seeds × both
// recovery policies. RunChaosReplay runs the invariant checker after every
// fault and once post-run (no orphaned sessions, no leaked ID mappings, no
// double-counted area) and fails the run on any violation; the test adds
// the job-accounting contract per policy.
func TestChaosInvariantMatrix(t *testing.T) {
	for _, pol := range []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				cfg := chaosTestConfig(seed, pol)
				res, err := RunChaosReplay(cfg)
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
				switch pol {
				case federation.RequeueOnCrash:
					if res.Killed != 0 || res.Rejected != 0 {
						t.Fatalf("requeue policy killed %d / rejected %d jobs", res.Killed, res.Rejected)
					}
					if res.KilledSessions != 0 {
						t.Fatalf("requeue policy killed %d sessions", res.KilledSessions)
					}
					if res.RequeuedRequests == 0 {
						t.Fatal("crashes requeued nothing — recovery path not exercised")
					}
					if res.ReplayedRequests+res.DroppedRequests != res.RequeuedRequests {
						t.Fatalf("requeue accounting leak: %d requeued != %d replayed + %d dropped",
							res.RequeuedRequests, res.ReplayedRequests, res.DroppedRequests)
					}
				case federation.KillOnCrash:
					if res.RequeuedRequests != 0 || res.ReplayedRequests != 0 {
						t.Fatalf("kill policy requeued/replayed requests: %+v", res)
					}
					if res.Killed == 0 && res.KilledSessions == 0 {
						t.Fatal("kill policy never killed anything — recovery path not exercised")
					}
				}
			})
		}
	}
}

// TestChaosZeroFaultPlanMatchesBaseline sanity-checks the harness overhead
// path: with an empty fault plan the chaos runner is just a federated
// replay, completing every job with no recovery events.
func TestChaosZeroFaultPlanMatchesBaseline(t *testing.T) {
	cfg := chaosTestConfig(5, federation.KillOnCrash)
	cfg.Chaos = chaos.Config{}
	res, err := RunChaosReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 || res.Restarts != 0 || len(res.Trace) != 0 {
		t.Fatalf("empty plan executed faults: %+v", res)
	}
	if res.Completed != len(cfg.Jobs) {
		t.Fatalf("completed %d of %d jobs without faults", res.Completed, len(cfg.Jobs))
	}
	if res.KilledSessions+res.RequeuedRequests+res.ReplayedRequests+res.DroppedRequests != 0 {
		t.Fatalf("recovery counters moved without faults: %+v", res)
	}
}

// TestChaosReplaySparseTrace is the stall-detector regression: an
// inter-arrival gap longer than the replay's one-hour stepping window (and
// no PSAs to fill it with events) is an idle period, not a deadlock.
func TestChaosReplaySparseTrace(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Nodes: 2, Runtime: 100},
		{ID: 2, Submit: 9000, Nodes: 2, Runtime: 100},
	}
	res, err := RunChaosReplay(ChaosReplayConfig{
		Jobs:          jobs,
		Shards:        2,
		NodesPerShard: 4,
		Recovery:      federation.KillOnCrash,
		Chaos:         chaos.Config{Seed: 1}, // MTTF 0 ⇒ empty fault plan
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d jobs across the gap", res.Completed, len(jobs))
	}
}
