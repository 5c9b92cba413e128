package federation

import (
	"fmt"
	"sort"
	"sync"

	"coormv2/internal/clock"
	"coormv2/internal/view"
)

// Rebalancer watches per-shard load and migrates clusters off skewed shards.
//
// Load is observed per cluster through rms.Server.ClusterLoads, afresh at
// every check: the score of a cluster over one check interval is its request
// churn delta (accepted request() operations since the last check — its
// per-shard sum also surfaces as the churn_requests counter of
// rms.Server.Stats) plus its firm pool occupancy (node IDs held by
// non-preemptible allocations; preemptible holdings are reclaimable and
// would mask skew under scavenger PSAs that fill every idle node); a shard's
// score is the sum over its clusters. When the hottest shard's score exceeds
// SkewRatio times the coldest's, the rebalancer migrates the hottest donor
// cluster whose move strictly narrows the gap, via Federator.MigrateCluster.
// Clusters that cannot move — the donor's last cluster, or a racing topology
// change — are skipped in favour of the next candidate. (Live cross-cluster
// relations no longer block a move: the severing detach converts them into
// NotBefore floors.)
//
// Checks run on the federation's clock ("rebalance.check" timer events), so
// under clock.SimClock the whole rebalancing schedule is part of the
// deterministic event stream: same seed, same migrations, same event
// fingerprint. Down shards are excluded from both ends of a check; a shard
// that crashed and restarted reports reset churn counters, which the delta
// computation treats as a fresh baseline.
type Rebalancer struct {
	f   *Federator
	cfg RebalancerConfig

	mu       sync.Mutex
	last     map[view.ClusterID]int64 // cumulative churn at the last check
	timer    clock.Timer
	started  bool
	stopped  bool
	checks   int
	migrated int
	requests int
	trace    []string
}

// RebalancerConfig parametrizes a Rebalancer.
type RebalancerConfig struct {
	// Interval is the virtual (or wall) time between load checks; required.
	Interval float64
	// SkewRatio triggers a migration when the hottest shard's load score
	// exceeds SkewRatio × the coldest's. Values below 1 select the default
	// of 2 (a shard twice as loaded as the coldest is skewed).
	SkewRatio float64
	// OnMigration, when non-nil, observes every completed migration (the
	// chaos×migration harness hooks its invariant checker here). It must not
	// call back into the Rebalancer.
	OnMigration func(MigrationReport)
}

// NewRebalancer creates a rebalancer for the federation. Call Start to arm
// the periodic check.
func NewRebalancer(f *Federator, cfg RebalancerConfig) *Rebalancer {
	if cfg.Interval <= 0 {
		panic("federation: RebalancerConfig.Interval must be positive")
	}
	if cfg.SkewRatio < 1 {
		cfg.SkewRatio = 2
	}
	return &Rebalancer{f: f, cfg: cfg, last: make(map[view.ClusterID]int64)}
}

// Start arms the periodic load check; the first one fires one Interval from
// now. Start is idempotent and a no-op after Stop.
func (rb *Rebalancer) Start() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.started || rb.stopped {
		return
	}
	rb.started = true
	rb.armLocked()
}

func (rb *Rebalancer) armLocked() {
	rb.timer = rb.f.clk.AfterFunc(rb.cfg.Interval, "rebalance.check", rb.tick)
}

// Stop cancels the periodic check permanently.
func (rb *Rebalancer) Stop() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.stopped = true
	if rb.timer != nil {
		rb.timer.Stop()
		rb.timer = nil
	}
}

func (rb *Rebalancer) tick() {
	rb.CheckNow()
	rb.mu.Lock()
	if !rb.stopped {
		rb.armLocked()
	}
	rb.mu.Unlock()
}

// Migrations returns the number of completed cluster migrations.
func (rb *Rebalancer) Migrations() int { rb.mu.Lock(); defer rb.mu.Unlock(); return rb.migrated }

// MovedRequests returns the total request mappings handed over so far.
func (rb *Rebalancer) MovedRequests() int { rb.mu.Lock(); defer rb.mu.Unlock(); return rb.requests }

// Trace returns one deterministic line per completed migration, in order.
func (rb *Rebalancer) Trace() []string {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return append([]string(nil), rb.trace...)
}

// CheckNow runs one load check immediately (the timer path calls it every
// Interval; tests may call it directly). Every check scores every running
// shard afresh, a quiet one included: its scores are firm occupancy alone,
// which a burst's churn deltas may have masked at the check before.
func (rb *Rebalancer) CheckNow() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.checks++

	n := rb.f.NumShards()
	type cand struct {
		cid   view.ClusterID
		score int64
	}
	scores := make([]int64, n)
	running := make([]bool, n)
	clusters := make([][]cand, n)
	for i := 0; i < n; i++ {
		if rb.f.ShardDown(i) {
			continue
		}
		loads := rb.f.shards[i].ClusterLoads()
		if loads == nil { // crashed between the down check and the read
			continue
		}
		running[i] = true
		for _, l := range loads {
			d := l.Churn - rb.last[l.Cluster]
			if d < 0 {
				// The shard restarted since the last check and its counters
				// reset; treat the current value as a fresh baseline.
				d = l.Churn
			}
			rb.last[l.Cluster] = l.Churn
			score := d + int64(l.Firm)
			scores[i] += score
			clusters[i] = append(clusters[i], cand{l.Cluster, score})
		}
	}

	donor, target := -1, -1
	for i := 0; i < n; i++ {
		if !running[i] {
			continue
		}
		if target < 0 || scores[i] < scores[target] {
			target = i
		}
		// Only shards with at least two clusters can donate.
		if len(clusters[i]) >= 2 && (donor < 0 || scores[i] > scores[donor]) {
			donor = i
		}
	}
	if donor < 0 || target < 0 || donor == target {
		return
	}
	// Scores are never negative, so an idle federation (hottest score 0)
	// fails the skew test and is never churned.
	gap := scores[donor] - scores[target]
	if float64(scores[donor]) <= rb.cfg.SkewRatio*float64(scores[target]) {
		return
	}
	// Hottest candidate first; ClusterLoads order makes ties resolve by
	// ascending cluster ID, so candidate order is deterministic. A move
	// must strictly narrow the gap: 0 < score < gap. One migration per check.
	sort.SliceStable(clusters[donor], func(a, b int) bool {
		return clusters[donor][a].score > clusters[donor][b].score
	})
	for _, c := range clusters[donor] {
		if c.score <= 0 || c.score >= gap {
			continue
		}
		rep, err := rb.f.MigrateCluster(c.cid, target)
		if err != nil {
			continue // last cluster or racing topology change: next candidate
		}
		rb.migrated++
		rb.requests += rep.Requests
		rb.trace = append(rb.trace, fmt.Sprintf("t=%.6f %s", rb.f.Now(), rep))
		if rb.cfg.OnMigration != nil {
			rb.cfg.OnMigration(rep)
		}
		return
	}
}
