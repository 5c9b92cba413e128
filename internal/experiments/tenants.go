package experiments

import (
	"fmt"
	"sort"
	"strconv"

	"coormv2/internal/stats"
	"coormv2/internal/tenants"
)

// tenantMix is the multi-tenant preset of the replay: tenants queues share
// shards clusters of nodes machines each under skewed demand. Tenant t0 is
// the guaranteed queue (half of every cluster); t1 is the hot best-effort
// tenant submitting hotFrac of the rigid trace; the remaining tenants split
// the rest of the trace evenly with t0. One scavenging PSA per cluster,
// tagged with the best-effort tenants round-robin, keeps the machines
// saturated with preemptible work — the allocations quota preemption revokes
// when the guaranteed queue is starved. With DRF off the identical workload
// runs under connection-order FIFO, the fairness baseline the per-tenant
// wait table is read against.
type tenantMix struct {
	tenants       int     // queue count ≥ 2: t0 guaranteed, t1 hot
	hotFrac       float64 // t1's share of the trace, in [0,1]
	shards, nodes int
}

func tenantName(k int) string { return "t" + strconv.Itoa(k) }

// guarantee is t0's per-cluster guaranteed node count.
func (m tenantMix) guarantee() int { return max(1, m.nodes/2) }

// of assigns rigid job i its tenant queue: the first hotFrac of every
// 100-job block goes to the hot tenant t1, and the rest cycles over the
// other tenants (t0, t2, t3, …) evenly.
func (m tenantMix) of(i int) string {
	if float64(i%100) < m.hotFrac*100 {
		return "t1"
	}
	k := i % (m.tenants - 1)
	if k >= 1 {
		k++ // skip the hot tenant: cycle t0, t2, t3, …
	}
	return tenantName(k)
}

// config is the mix's replay (minus the trace) with PSAs of psaTaskDur
// tasks: under DRF with quota preemption over the mix's queue tree when drf
// is set, under connection-order FIFO otherwise. A job settles on the
// server's finish signal.
func (m tenantMix) config(psaTaskDur float64, drf bool) replayConfig {
	cfg := replayConfig{
		Shards: m.shards, NodesPerShard: m.nodes, PSATaskDur: psaTaskDur,
		PSATenant: func(i int) string { return tenantName(1 + i%(m.tenants-1)) },
		TenantOf:  m.of,
	}
	if drf {
		guarantee := tenants.Resources{}
		for _, cid := range federatedClusters(m.shards) {
			guarantee[cid] = m.guarantee()
		}
		cfg.Tenants = tenants.NewTree()
		cfg.Tenants.MustAdd("t0", guarantee, nil)
		for k := 1; k < m.tenants; k++ {
			cfg.Tenants.MustAdd(tenantName(k), nil, nil)
		}
	}
	return cfg
}

// tenantStat is one tenant's end-of-run row.
type tenantStat struct {
	tenant    string
	guarantee int // per-cluster guaranteed nodes (0 = best-effort)
	jobs      int
	completed int
	meanWait  float64
	p99Wait   float64
	// preempts counts quota-preemption revocations charged to this tenant
	// (its allocations were the victims).
	preempts int64
}

// stats splits a finished replay's job fates by tenant, t0, t1, … in index
// order, and returns them with Jain's fairness index over the mean waits of
// the tenants that submitted jobs (1.0 = all tenants wait equally; 1/N = one
// tenant absorbs all the waiting): how evenly the queueing pain is spread,
// the number the DRF-vs-FIFO comparison in PERFORMANCE.md reports.
func (m tenantMix) stats(res *replayResult) ([]tenantStat, float64) {
	jobsPer := make(map[string]int, m.tenants)
	waits := make(map[string][]float64, m.tenants)
	for i, f := range res.Fates {
		tenant := m.of(i)
		jobsPer[tenant]++
		if f.outcome == "completed" {
			waits[tenant] = append(waits[tenant], f.wait)
		}
	}
	rows := make([]tenantStat, 0, m.tenants)
	means := make([]float64, 0, m.tenants)
	for k := 0; k < m.tenants; k++ {
		label := tenantName(k)
		st := tenantStat{
			tenant:    label,
			jobs:      jobsPer[label],
			completed: len(waits[label]),
			preempts:  res.TenantPreempts[label],
		}
		if k == 0 {
			st.guarantee = m.guarantee()
		}
		if ws := waits[label]; len(ws) > 0 {
			sort.Float64s(ws)
			var sum float64
			for _, w := range ws {
				sum += w
			}
			st.meanWait = sum / float64(len(ws))
			st.p99Wait = stats.Percentile(ws, 99)
		}
		if st.jobs > 0 {
			means = append(means, st.meanWait)
		}
		rows = append(rows, st)
	}
	return rows, jain(means)
}

// tenantsExp runs the identical skewed multi-tenant trace under
// connection-order FIFO and under DRF with quota preemption (see
// tenantMix). The table reads per tenant and mode: wait mean/p99, quota
// preemptions suffered, and per-mode wait fairness (Jain) and PSA waste.
// The DRF run carries the observability registry, so the JSON report
// includes the per-tenant wait histograms and EvPreempt events every shard
// records.
func tenantsExp(o Options) (*Report, error) {
	mix := tenantMix{tenants: max(o.Tenants, 2), hotFrac: o.TenantHotFrac, shards: max(o.Shards, 2), nodes: 64}
	if mix.hotFrac < 0 || mix.hotFrac > 1 {
		return nil, fmt.Errorf("experiments: HotFrac %g outside [0,1]", mix.hotFrac)
	}
	jobs := synthetic(o.Seed, 120, 16, 45, 900)
	rep := &Report{
		Name: "tenants",
		Notes: []string{traceNote(jobs, fmt.Sprintf("/job; %d shards, %d tenants, %.0f%% hot-tenant demand",
			mix.shards, mix.tenants, 100*mix.hotFrac))},
		Header: []string{"policy", "tenant", "guarantee", "jobs", "done",
			"mean-wait-s", "p99-wait-s", "preempts", "fairness", "waste-node·s", "used-%"},
	}
	variants := []replayVariant{
		{[]string{"fifo"}, mix.config(300, false)},
		{[]string{"drf"}, mix.config(300, true)},
	}
	return replaySweep(rep, jobs, variants, 1, func(res *replayResult) [][]string {
		rows, fairness := mix.stats(res)
		out := make([][]string, len(rows))
		for i, ts := range rows {
			out[i] = []string{
				ts.tenant, itoa(ts.guarantee), itoa(ts.jobs), itoa(ts.completed),
				fixed(ts.meanWait, 1), fixed(ts.p99Wait, 1), strconv.FormatInt(ts.preempts, 10),
				fixed(fairness, 3), sig(res.TotalWaste), fixed(100*res.UsedFraction, 2),
			}
		}
		return out
	})
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
