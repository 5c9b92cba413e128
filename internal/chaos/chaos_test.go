package chaos

import (
	"math"
	"reflect"
	"testing"

	"coormv2/internal/stats"
	"coormv2/internal/view"
)

func TestChaosPlanDeterministicAndWellFormed(t *testing.T) {
	cfg := Config{Seed: 7, MTTF: 500, MeanRestartDelay: 60, Horizon: 5000}
	a := Plan(cfg, 4)
	b := Plan(cfg, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce the same plan")
	}
	if len(a) == 0 {
		t.Fatal("expected some faults with MTTF << horizon")
	}
	// Different seed ⇒ different plan.
	cfg2 := cfg
	cfg2.Seed = 8
	if reflect.DeepEqual(a, Plan(cfg2, 4)) {
		t.Fatal("different seeds produced identical plans")
	}
	// Sorted by crash time; per-shard cycles never overlap; horizon holds.
	last := map[int]float64{}
	for i, f := range a {
		if i > 0 && a[i-1].CrashAt > f.CrashAt {
			t.Fatalf("plan not sorted at %d: %v then %v", i, a[i-1], f)
		}
		if f.CrashAt >= cfg.Horizon {
			t.Fatalf("fault beyond horizon: %v", f)
		}
		if f.RestartAt <= f.CrashAt {
			t.Fatalf("restart not after crash: %v", f)
		}
		if f.CrashAt < last[f.Shard] {
			t.Fatalf("shard %d faults overlap: crash %g before previous restart %g", f.Shard, f.CrashAt, last[f.Shard])
		}
		last[f.Shard] = f.RestartAt
	}
}

func TestChaosPlanPrefixStableAcrossShardCounts(t *testing.T) {
	cfg := Config{Seed: 3, MTTF: 400, MeanRestartDelay: 50, Horizon: 3000}
	small := Plan(cfg, 2)
	big := Plan(cfg, 4)
	onlySmallShards := func(fs []Fault) []Fault {
		var out []Fault
		for _, f := range fs {
			if f.Shard < 2 {
				out = append(out, f)
			}
		}
		return out
	}
	if !reflect.DeepEqual(small, onlySmallShards(big)) {
		t.Fatal("adding shards perturbed the existing shards' fault schedules")
	}
}

func TestChaosPlanCapsAndDegenerateConfigs(t *testing.T) {
	cfg := Config{Seed: 1, MTTF: 10, MeanRestartDelay: 1, Horizon: 200}
	plan := Plan(cfg, 2)
	if len(plan) < 10 {
		t.Fatalf("dense plan has %d faults", len(plan))
	}
	for _, f := range plan {
		if f.CrashAt >= cfg.Horizon {
			t.Errorf("crash %v at or beyond the horizon", f)
		}
	}
	if Plan(Config{Seed: 1, MTTF: 0, Horizon: 100}, 2) != nil {
		t.Error("zero MTTF should disable the plan")
	}
	if Plan(Config{Seed: 1, MTTF: 10, Horizon: 0}, 2) != nil {
		t.Error("zero horizon should disable the plan")
	}
	if Plan(Config{Seed: 1, MTTF: 10, Horizon: 100}, 0) != nil {
		t.Error("zero shards should disable the plan")
	}
}

func TestRenewal(t *testing.T) {
	arrivals := func(mean, horizon float64, max int, busy float64) []float64 {
		var ts []float64
		Renewal(stats.NewRand(5), mean, horizon, max, func(t float64) float64 {
			ts = append(ts, t)
			return busy
		})
		return ts
	}
	free := arrivals(1, 1000, 0, 0)
	if len(free) < 900 || free[len(free)-1] >= 1000 {
		t.Fatalf("%d arrivals, last at %g: want ≈1000 before the horizon", len(free), free[len(free)-1])
	}
	if got := arrivals(1, 1000, 7, 0); !reflect.DeepEqual(got, free[:7]) {
		t.Errorf("max=7 drew %v, want the first 7 arrivals %v", got, free[:7])
	}
	// The fault's busy time delays every later arrival by exactly that much:
	// the gaps themselves are the same draws.
	busy := arrivals(1, 1e9, 20, 0.5)
	for i := range busy {
		if want := free[i] + 0.5*float64(i); math.Abs(busy[i]-want) > 1e-9 {
			t.Fatalf("arrival %d at %g, want %g", i, busy[i], want)
		}
	}
	for _, c := range []struct{ mean, horizon float64 }{{0, 10}, {-1, 10}, {1, 0}, {1, -1}} {
		if got := arrivals(c.mean, c.horizon, 0, 0); got != nil {
			t.Errorf("mean=%g horizon=%g drew %v, want nothing", c.mean, c.horizon, got)
		}
	}
}

// TestPlansPinned pins the shard and node plans of coorm-exp's default chaos
// configuration to the values the three hand-written renewal loops produced
// before Renewal replaced them: same length and same Hash for seeds 1–3.
func TestPlansPinned(t *testing.T) {
	clusters := map[view.ClusterID]int{"c0": 64, "c1": 64, "c2": 64, "c3": 64}
	want := []struct {
		shards, nodes       int
		shardHash, nodeHash uint64
	}{
		{27, 36, 0xe96cc9b657287727, 0xc8843147b861b570},
		{22, 33, 0x65ed1c18458b0a92, 0xe242d78da85a2f5f},
		{17, 33, 0x6851c17750ef8b14, 0x77c362860e3ff0fc},
	}
	for i, w := range want {
		c := Config{Seed: int64(i + 1), MTTF: 1800, MeanRestartDelay: 180, Horizon: 10800, NodeMTTF: 1200, MeanNodeRecovery: 600}
		sp, np := Plan(c, 4), PlanNodes(c, clusters)
		if len(sp) != w.shards || Hash(sp) != w.shardHash {
			t.Errorf("seed %d: shard plan %d %016x, want %d %016x", c.Seed, len(sp), Hash(sp), w.shards, w.shardHash)
		}
		if len(np) != w.nodes || Hash(np) != w.nodeHash {
			t.Errorf("seed %d: node plan %d %016x, want %d %016x", c.Seed, len(np), Hash(np), w.nodes, w.nodeHash)
		}
	}
}
