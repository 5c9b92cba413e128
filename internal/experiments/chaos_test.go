package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"coormv2/internal/chaos"
	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/stats"
	"coormv2/internal/view"
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

// faultTestFederation is a 2-shard federation of two 4-node clusters on a
// fresh simulator engine, with one session holding a live ¬P request on
// cluster "a".
func faultTestFederation(t *testing.T) (*sim.Engine, *federation.Federator, *inertHandler) {
	t.Helper()
	e := sim.NewEngine()
	fed := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{"a": 4, "b": 4},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Recovery:        federation.KillOnCrash,
	})
	app := &inertHandler{}
	sess := fed.Connect(app)
	if _, err := sess.Request(rms.RequestSpec{Cluster: "a", N: 2, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	return e, fed, app
}

func TestArmFaultsTraceAndInvariants(t *testing.T) {
	e, fed, app := faultTestFederation(t)
	shard, _ := fed.Owner("a")
	log := armFaults(e, fed, []chaos.Fault{{Shard: shard, CrashAt: 5, RestartAt: 9}}, nil, nil)
	e.Run(20)
	if log.count["chaos.crash"] != 1 || log.count["chaos.restart"] != 1 {
		t.Fatalf("executed %v, want one crash and one restart", log.count)
	}
	if log.err != nil {
		t.Fatalf("invariant violated: %v", log.err)
	}
	tr := log.trace
	if len(tr) != 2 {
		t.Fatalf("trace = %v, want 2 lines", tr)
	}
	if !strings.Contains(tr[0], "crash shard=0") || !strings.Contains(tr[0], "killed=[1]") {
		t.Errorf("crash line = %q", tr[0])
	}
	if !strings.Contains(tr[1], "restart shard=0") {
		t.Errorf("restart line = %q", tr[1])
	}
	if !app.killed {
		t.Error("session with live state on the crashed shard should be killed")
	}
	if err := fed.CheckInvariants(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestArmFaultsKeepsRefusedNodeFault: a node fault the federation refuses
// (here: recovering a machine that is not down) is the run's fault error,
// not a panic, and later faults still run.
func TestArmFaultsKeepsRefusedNodeFault(t *testing.T) {
	e, fed, _ := faultTestFederation(t)
	log := armFaults(e, fed, nil, []chaos.NodeFault{
		{Cluster: "b", Node: 1, FailAt: 7, RecoverAt: 3},
		{Cluster: "b", Node: 2, FailAt: 4, RecoverAt: 6},
	}, nil)
	e.Run(20)
	if log.err == nil || !strings.Contains(log.err.Error(), "not down") {
		t.Fatalf("err = %v, want the refused recovery of node 1", log.err)
	}
	if log.count["chaos.nodefail"] != 2 || log.count["chaos.noderecover"] != 1 || len(log.trace) != 3 {
		t.Fatalf("executed %v, trace %v: want 2 failures, 1 recovery, 3 lines", log.count, log.trace)
	}
	if err := fed.CheckInvariants(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

type inertHandler struct{ killed bool }

func (h *inertHandler) OnViews(_, _ view.View)    {}
func (h *inertHandler) OnStart(request.ID, []int) {}
func (h *inertHandler) OnKill(string)             { h.killed = true }
