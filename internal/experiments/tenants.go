package experiments

import (
	"fmt"
	"sort"
	"strconv"

	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/tenants"
	"coormv2/internal/workload"
)

// TenantsReplayConfig parametrizes the multi-tenant scenario: N tenant
// queues share a federated cluster set under skewed demand. Tenant t0 is
// the guaranteed queue (GuaranteeFrac of every cluster); t1 is the hot
// best-effort tenant submitting HotFrac of the rigid trace; the remaining
// tenants split the rest of the trace evenly with t0. One scavenging PSA
// per cluster, tagged with the best-effort tenants round-robin, keeps the
// machines saturated with preemptible work — the allocations quota
// preemption revokes when the guaranteed queue is starved. With DRF off
// the identical workload runs under connection-order FIFO, the fairness
// baseline the per-tenant wait table is read against.
type TenantsReplayConfig struct {
	// Jobs is the rigid trace, split across tenants by TenantOfJob below.
	Jobs []workload.Job
	// Tenants is the tenant-queue count N ≥ 2 (t0 guaranteed, t1 hot).
	Tenants int
	// Shards is the scheduler shard count; each shard owns one cluster.
	Shards int
	// NodesPerShard sizes each cluster.
	NodesPerShard int
	// GuaranteeFrac, in (0,1], is the fraction of every cluster guaranteed
	// to t0 (default 0.5).
	GuaranteeFrac float64
	// HotFrac, in [0,1], is the fraction of the trace submitted by the hot
	// best-effort tenant t1 — the demand skew.
	HotFrac float64
	// PSATaskDur is the per-task duration of the scavenging PSAs.
	PSATaskDur float64
	// DRF switches every shard from connection-order FIFO to the DRF
	// queue-hierarchy policy with quota preemption.
	DRF bool
	// Obs, when non-nil, collects the run's histograms (incl. the
	// per-tenant wait histograms every shard records), counters and events.
	Obs *obs.Registry
}

// TenantOfJob assigns rigid job i its tenant queue: the first HotFrac of
// every 100-job block goes to the hot tenant t1, and the rest cycles over
// the other tenants (t0, t2, t3, …) evenly. Exported so the CLI and the
// tests label jobs exactly as the runner does.
func (cfg TenantsReplayConfig) TenantOfJob(i int) string {
	if float64(i%100) < cfg.HotFrac*100 {
		return "t1"
	}
	k := i % (cfg.Tenants - 1)
	if k >= 1 {
		k++ // skip the hot tenant: cycle t0, t2, t3, …
	}
	return "t" + strconv.Itoa(k)
}

// TenantStat is one tenant's end-of-run row.
type TenantStat struct {
	Tenant    string
	Guarantee int // per-cluster guaranteed nodes (0 = best-effort)
	Jobs      int
	Completed int
	MeanWait  float64
	P99Wait   float64
	// Preempts counts quota-preemption revocations charged to this tenant
	// (its allocations were the victims).
	Preempts int64
}

// TenantsReplayResult aggregates one multi-tenant replay. Every field is a
// pure function of the configuration.
type TenantsReplayResult struct {
	Tenants []TenantStat // t0, t1, … in index order

	// WaitFairness is Jain's fairness index over the per-tenant mean waits
	// (1.0 = all tenants wait equally; 1/N = one tenant absorbs all the
	// waiting). It quantifies how evenly the queueing pain is spread, the
	// number the DRF-vs-FIFO comparison in PERFORMANCE.md reports.
	WaitFairness float64

	Preempts     int64 // total quota-preemption revocations
	TotalWaste   float64
	UsedFraction float64
	Makespan     float64
	Events       int64

	// Snapshot is the end-of-run observability snapshot (nil unless
	// TenantsReplayConfig.Obs was set).
	Snapshot *obs.Snapshot
}

// RunTenantsReplay replays the rigid trace through a federated RMS with N
// tenant queues. The federation invariant checker (which includes the
// cross-shard tenant-label agreement clause) runs once after the run; any
// violation is returned as an error.
func RunTenantsReplay(cfg TenantsReplayConfig) (*TenantsReplayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
	}
	if cfg.Tenants < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 tenants, have %d", cfg.Tenants)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.NodesPerShard <= 0 {
		return nil, fmt.Errorf("experiments: need a positive per-shard node count")
	}
	if cfg.HotFrac < 0 || cfg.HotFrac > 1 {
		return nil, fmt.Errorf("experiments: HotFrac %g outside [0,1]", cfg.HotFrac)
	}
	if cfg.GuaranteeFrac <= 0 || cfg.GuaranteeFrac > 1 {
		cfg.GuaranteeFrac = 0.5
	}

	names := federatedClusters(cfg.Shards)
	// The queue tree: t0 guaranteed on every cluster, the rest best-effort.
	perCluster := max(1, int(cfg.GuaranteeFrac*float64(cfg.NodesPerShard)))
	guarantee := tenants.Resources{}
	for _, cid := range names {
		guarantee[cid] = perCluster
	}
	tree := tenants.NewTree()
	tree.MustAdd("t0", guarantee, nil)
	for k := 1; k < cfg.Tenants; k++ {
		tree.MustAdd("t"+strconv.Itoa(k), nil, nil)
	}
	var scheduling func(int) core.SchedulingPolicy
	if cfg.DRF {
		scheduling = func(int) core.SchedulingPolicy { return tenants.NewDRF(tree) }
	}
	env := buildRMS(names, cfg.NodesPerShard, cfg.Shards, federation.Config{Scheduling: scheduling, Obs: cfg.Obs})

	// Scavenging PSAs, one per cluster, tagged with the best-effort tenants
	// round-robin: the saturating preemptible load quota preemption revokes.
	env.attachPSAPerCluster(cfg.PSATaskDur, func(i int) []rms.ConnectOption {
		return []rms.ConnectOption{rms.WithTenant("t" + strconv.Itoa(1+i%(cfg.Tenants-1)))}
	})
	run := env.submitRigid(rigidTrace{
		jobs: cfg.Jobs, event: "tenants.submit", serverFinish: true,
		place: func(i int) (int, []rms.ConnectOption) {
			return i % cfg.Shards, []rms.ConnectOption{rms.WithTenant(cfg.TenantOfJob(i))}
		},
	})
	if err := env.run("tenants replay", maxReplayTime, nil); err != nil {
		return nil, err
	}
	fed, agg := env.fed, env.agg
	if err := fed.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: post-run invariant violated: %w", err)
	}

	jobsPer := make(map[string]int, cfg.Tenants)
	waits := make(map[string][]float64, cfg.Tenants)
	for i, f := range run.fates {
		tenant := cfg.TenantOfJob(i)
		jobsPer[tenant]++
		if f.outcome == "completed" {
			waits[tenant] = append(waits[tenant], f.wait)
		}
	}
	preempts := fed.TenantPreempts()
	res := &TenantsReplayResult{Makespan: env.e.Now(), Events: env.e.Processed()}
	means := make([]float64, 0, cfg.Tenants)
	for k := 0; k < cfg.Tenants; k++ {
		label := "t" + strconv.Itoa(k)
		st := TenantStat{
			Tenant:    label,
			Jobs:      jobsPer[label],
			Completed: len(waits[label]),
			Preempts:  preempts[label],
		}
		if k == 0 {
			st.Guarantee = perCluster
		}
		if ws := waits[label]; len(ws) > 0 {
			sort.Float64s(ws)
			var sum float64
			for _, w := range ws {
				sum += w
			}
			st.MeanWait = sum / float64(len(ws))
			st.P99Wait = stats.Percentile(ws, 99)
		}
		if st.Jobs > 0 {
			means = append(means, st.MeanWait)
		}
		res.Preempts += st.Preempts
		res.Tenants = append(res.Tenants, st)
	}
	res.WaitFairness = jain(means)
	res.TotalWaste = agg.TotalWaste()
	res.UsedFraction = agg.UsedFraction(cfg.Shards*cfg.NodesPerShard, res.Makespan)
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot(res.Makespan)
		res.Snapshot = &snap
	}
	return res, nil
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over xs, the standard
// [1/n, 1] fairness measure: 1 when all values are equal. By convention it
// is 1 for an empty or all-zero vector (nobody waits ⇒ perfectly fair).
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
