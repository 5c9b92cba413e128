package experiments

import (
	"reflect"
	"testing"

	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

var tenantsTestMix = tenantMix{tenants: 3, hotFrac: 0.5, shards: 2, nodes: 16}

// tenantsTestRun replays a reduced tenants preset and splits its result by
// tenant.
func tenantsTestRun(t *testing.T, drf bool) (*replayResult, []tenantStat, int64) {
	t.Helper()
	cfg := tenantsTestMix.config(120, drf)
	cfg.Jobs = workload.Synthetic(stats.NewRand(5), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 12, MeanInterArr: 30, MeanRuntime: 400,
		PowerOfTwoBias: 0.5,
	})
	res, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := tenantsTestMix.stats(res)
	var preempts int64
	for _, st := range rows {
		preempts += st.preempts
	}
	return res, rows, preempts
}

// TestTenantsReplayDRFRecoversGuarantee is the end-to-end DRF demo: the
// identical skewed trace runs under FIFO and under DRF with quota
// preemption. FIFO never preempts (no policy, no victim nomination); DRF
// revokes best-effort allocations when the guaranteed tenant is starved,
// and the guaranteed tenant's tail wait must not get worse for it.
func TestTenantsReplayDRFRecoversGuarantee(t *testing.T) {
	_, fifo, fifoPreempts := tenantsTestRun(t, false)
	res, drf, drfPreempts := tenantsTestRun(t, true)
	for name, rows := range map[string][]tenantStat{"fifo": fifo, "drf": drf} {
		done := 0
		for _, st := range rows {
			done += st.completed
		}
		if done != 60 {
			t.Fatalf("%s: completed %d of 60 jobs", name, done)
		}
	}
	if fifoPreempts != 0 {
		t.Fatalf("FIFO run preempted %d allocations; no policy must mean no revocations", fifoPreempts)
	}
	if drfPreempts == 0 {
		t.Fatal("DRF run never preempted; the guarantee-recovery demo is vacuous")
	}
	// Preemption is charged to best-effort tenants only: the guaranteed
	// queue's own allocations are never nominated to relieve itself.
	if drf[0].preempts != 0 {
		t.Fatalf("guaranteed tenant t0 lost %d allocations to quota preemption", drf[0].preempts)
	}
	if drf[0].p99Wait > fifo[0].p99Wait {
		t.Fatalf("guaranteed tenant p99 wait worsened under DRF: %.1fs vs %.1fs under FIFO",
			drf[0].p99Wait, fifo[0].p99Wait)
	}

	// Same seed ⇒ byte-identical result, policy active or not.
	again, _, _ := tenantsTestRun(t, true)
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("same seed diverged under DRF:\nrun1: %+v\nrun2: %+v", res, again)
	}
}
