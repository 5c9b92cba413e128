// Package chaos derives the deterministic fault plans of the fault-injection
// harness. Every plan is one seeded exponential renewal process (Renewal) in
// its own fault vocabulary: crash/restart cycles of the federation's
// scheduler shards (Plan), machine failures/repairs per cluster (PlanNodes)
// and, in internal/netchaos, wire faults. Same seed ⇒ same plan; Hash is the
// plan's fingerprint. internal/experiments arms the shard and node plans as
// simulator events and runs the federation's invariant checker after every
// fault, so the recovery path — the paper's §3.1.4 kill semantics and the
// reproduction's requeue policies — is exercised systematically across seeds
// and policies instead of being left to rare production incidents.
package chaos

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"

	"coormv2/internal/stats"
)

// Config parametrizes a fault plan. All times are virtual seconds.
type Config struct {
	// Seed drives every random draw; same seed ⇒ same plan.
	Seed int64
	// MTTF is the mean time between a shard coming up (or starting) and its
	// next crash, drawn from an exponential distribution per shard.
	MTTF float64
	// MeanRestartDelay is the mean crash→restart delay (exponential).
	MeanRestartDelay float64
	// Horizon bounds the plan: no crash is scheduled at or after it.
	Horizon float64

	// NodeMTTF is the mean time between machine failures on one cluster
	// (exponential; cluster-level rate, not per machine). Zero disables node
	// faults — shard-only plans are unchanged.
	NodeMTTF float64
	// MeanNodeRecovery is the mean repair time of a failed machine
	// (exponential).
	MeanNodeRecovery float64
}

// Renewal runs one seeded renewal process: arrival instants t separated by
// exponential gaps of the given mean, stopping at the first instant at or
// after horizon or after max arrivals (0: the horizon alone bounds it). fault
// is called at every arrival — it may draw from rng itself — and returns how
// long the process stays busy: the next gap starts that much after t (a crash
// until its restart, a wire fault for its duration; 0 when faults overlap).
// A mean or horizon ≤ 0 draws nothing.
func Renewal(rng *rand.Rand, mean, horizon float64, max int, fault func(t float64) (busy float64)) {
	if mean <= 0 || horizon <= 0 {
		return
	}
	t := 0.0
	for n := 0; max == 0 || n < max; n++ {
		t += rng.ExpFloat64() * mean
		if t >= horizon {
			return
		}
		t += fault(t)
	}
}

// Hash folds a plan's trace — one String() line per fault, in order — into
// one stable FNV-1a fingerprint, the value determinism tests compare.
func Hash[F fmt.Stringer](plan []F) uint64 {
	h := fnv.New64a()
	for _, f := range plan {
		io.WriteString(h, f.String())
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Fault is one crash/restart cycle of one shard.
type Fault struct {
	Shard     int
	CrashAt   float64
	RestartAt float64
}

// String renders the fault deterministically for traces.
func (f Fault) String() string {
	return fmt.Sprintf("fault shard=%d crash@%g restart@%g", f.Shard, f.CrashAt, f.RestartAt)
}

// Plan derives the full fault schedule for a federation of the given shard
// count. Per shard, crash times follow a renewal process: exponential
// time-to-fail from the last restart, then an exponential restart delay.
// Faults never overlap on one shard by construction. The result is sorted
// by (CrashAt, Shard); ties cannot produce nondeterminism because the order
// is total.
func Plan(cfg Config, shards int) []Fault {
	rng := stats.NewRand(cfg.Seed)
	var plan []Fault
	// Draw shard by shard so adding shards never perturbs the earlier
	// shards' schedules relative to a plan with the same seed.
	for shard := 0; shard < shards; shard++ {
		Renewal(rng, cfg.MTTF, cfg.Horizon, 0, func(t float64) float64 {
			delay := cfg.MeanRestartDelay * rng.ExpFloat64()
			plan = append(plan, Fault{Shard: shard, CrashAt: t, RestartAt: t + delay})
			return delay
		})
	}
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].CrashAt != plan[j].CrashAt {
			return plan[i].CrashAt < plan[j].CrashAt
		}
		return plan[i].Shard < plan[j].Shard
	})
	return plan
}
