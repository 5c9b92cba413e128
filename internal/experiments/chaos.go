package experiments

import (
	"fmt"

	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/tenants"
	"coormv2/internal/transport"
	"coormv2/internal/workload"
)

// ChaosReplayConfig parametrizes the chaos scenario: the federated rigid
// trace + scavenging PSAs of RunFederatedReplay, with a seeded shard
// crash/restart schedule injected on top and a recovery policy deciding the
// fate of the affected sessions. With ClustersPerShard > 1 it doubles as the
// rebalancing scenario: HotJobFraction skews the trace onto shard 0's
// clusters, and Rebalance arms a live cluster-migration loop on top of (or
// instead of) the fault plan.
type ChaosReplayConfig struct {
	// Jobs is the rigid trace, assigned to clusters round-robin (see
	// HotJobFraction for the skewed variant).
	Jobs []workload.Job
	// Shards is the scheduler shard count.
	Shards int
	// NodesPerShard sizes each cluster. (Historically one cluster per shard,
	// hence the name; with ClustersPerShard > 1 a shard's capacity is
	// ClustersPerShard × NodesPerShard.)
	NodesPerShard int
	// ClustersPerShard is the number of clusters initially partitioned onto
	// each shard; 0 or 1 selects the classic one-cluster-per-shard layout.
	ClustersPerShard int
	// HotJobFraction, in (0,1], pins that fraction of the trace onto the
	// clusters initially owned by shard 0 — the load skew the rebalancer
	// exists to dissolve. 0 spreads the trace over all clusters evenly.
	HotJobFraction float64
	// Rebalance, when non-nil, runs a federation.Rebalancer with this
	// configuration for the whole replay. Its OnMigration hook is replaced by
	// the federation invariant checker, which runs after every migration (on
	// top of the per-fault checks); any violation fails the run.
	Rebalance *federation.RebalancerConfig
	// PSATaskDur, when positive, adds one scavenging PSA per cluster.
	PSATaskDur float64
	// GangFraction, in [0,1], gives that fraction of the rigid jobs a gang
	// companion: a second request related (alternating NEXT/COALLOC by job
	// index) to the job's own request, targeting the next cluster in index
	// order. Under the round-robin partition that cluster starts on the
	// next shard, so with Shards > 1 the companions exercise the cross-shard
	// two-phase reservation path; with Shards == 1 they collapse to ordinary
	// same-shard relations — the 1-shard differential baseline.
	GangFraction float64
	// Recovery selects what happens to sessions whose shard crashes.
	Recovery federation.RecoveryPolicy
	// NodeRecovery selects what happens to started requests that lose
	// machines to node-level faults (armed when Chaos.NodeMTTF > 0).
	NodeRecovery rms.NodeRecoveryPolicy
	// Chaos seeds and shapes the fault plan.
	Chaos chaos.Config
	// MaxSimTime aborts runaway replays (default 10^9 s).
	MaxSimTime float64
	// Obs, when non-nil, is threaded through the federation, every shard
	// and the armed fault plans, collecting latency histograms, counters and
	// the structured event ring for the run; ChaosReplayResult.Snapshot is
	// then its end-of-run snapshot. All durations are measured on the
	// simulated clock, so same-seed snapshots are byte-identical.
	Obs *obs.Registry
	// FullRecompute disables incremental scheduling on every shard. The
	// incremental≡full differential test runs the same seeded
	// chaos×migration replay in both modes and requires byte-identical
	// results (cache invalidation across crash, restart and migration is
	// exactly what it pins down).
	FullRecompute bool
	// Tenants, when non-nil, switches every shard from connection-order
	// FIFO to the DRF queue-hierarchy policy over this (sealed) tree — one
	// policy instance per shard, shared tree, so a queue's per-cluster
	// guarantees follow its clusters through migration — and tags each
	// rigid job's session with TenantOf(job index). Scavenging PSAs stay
	// untagged and land in the default queue, which makes them the natural
	// quota-preemption victims when a guaranteed queue is starved.
	Tenants *tenants.Tree
	// TenantOf assigns rigid job i its tenant queue label. Only consulted
	// when Tenants is non-nil; nil files every job in the default queue.
	TenantOf func(job int) string
}

// ChaosReplayResult aggregates one chaos replay. Every field is a pure
// function of the configuration: the determinism test pins two same-seed
// runs to identical results, including the fault trace and the event-stream
// fingerprint.
type ChaosReplayResult struct {
	Shards int
	Nodes  int
	Policy federation.RecoveryPolicy

	// Completed/Killed/Rejected partition the rigid jobs: finished normally,
	// killed with their crashed shard (KillOnCrash), or refused at
	// submission because the target shard was down (KillOnCrash).
	Completed int
	Killed    int
	Rejected  int

	Crashes  int
	Restarts int

	// Node-fault accounting (zero when Chaos.NodeMTTF == 0). NodeFails and
	// NodeRecovers count unique injected machine events; NodeKilled/
	// NodeRequeued/NodeReduced count affected requests by the action taken
	// (re-applications after a shard restart included). LostWork sums the
	// rigid jobs' node·seconds of lost computation (killed runs, repeated
	// requeued runs); Resubmits counts cooperative checkpoint-resubmissions.
	NodePolicy   rms.NodeRecoveryPolicy
	NodeFails    int
	NodeRecovers int
	NodeKilled   int
	NodeRequeued int
	NodeReduced  int
	LostWork     float64
	Resubmits    int

	// Migrations/MigratedRequests/MigrationTrace report the rebalancer's
	// work (zero/empty when ChaosReplayConfig.Rebalance is nil).
	Migrations       int
	MigratedRequests int
	MigrationTrace   []string
	// ShardChurn is each shard's cumulative accepted-request churn at the
	// end of the run, summed over the clusters it then owns (churn counters
	// migrate with their cluster). The max/mean ratio across shards is the
	// residual load imbalance.
	ShardChurn []int64

	// Fault-recovery counters over all applications (PSAs included).
	KilledSessions   int
	RequeuedRequests int
	ReplayedRequests int
	DroppedRequests  int

	// Cross-shard reservation accounting (zero when GangFraction == 0 or
	// Shards == 1): committed, aborted-for-good, and release→re-place
	// retried gangs.
	GangsCommitted int
	GangsAborted   int
	GangsRetried   int

	MeanWait float64 // completed rigid jobs only
	MaxWait  float64
	Makespan float64

	TotalArea    float64
	TotalWaste   float64
	UsedFraction float64

	Events int64
	// EventHash is an FNV-1a fingerprint of the full simulator event stream
	// (time bits + event name, in firing order): two runs are byte-identical
	// iff their hashes match.
	EventHash uint64
	// Trace is the fault trace: the federation's report of every executed
	// crash, restart, node failure and node recovery, in execution order.
	Trace []string

	// TenantPreempts is the end-of-run per-tenant quota-preemption tally
	// summed over running shards (nil unless ChaosReplayConfig.Tenants was
	// set). Like every other field it is a pure function of the seed.
	TenantPreempts map[string]int64

	// Snapshot is the end-of-run observability snapshot (nil unless
	// ChaosReplayConfig.Obs was set).
	Snapshot *obs.Snapshot
}

// RunChaosReplay replays a rigid-job stream through a federated RMS while a
// deterministic, seeded fault plan crashes and restarts shards. The
// federation invariant checker runs after every fault and once after the
// run; any violation, or a fault the federation refuses, is an error.
func RunChaosReplay(cfg ChaosReplayConfig) (*ChaosReplayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ClustersPerShard < 1 {
		cfg.ClustersPerShard = 1
	}
	if cfg.NodesPerShard <= 0 {
		return nil, fmt.Errorf("experiments: need a positive per-shard node count")
	}
	if cfg.HotJobFraction < 0 || cfg.HotJobFraction > 1 {
		return nil, fmt.Errorf("experiments: HotJobFraction %g outside [0,1]", cfg.HotJobFraction)
	}
	if cfg.GangFraction < 0 || cfg.GangFraction > 1 {
		return nil, fmt.Errorf("experiments: GangFraction %g outside [0,1]", cfg.GangFraction)
	}

	// Cluster names sort in index order, so federation.Partition assigns
	// cluster j to shard j % Shards: shard 0's initial clusters are exactly
	// the indices ≡ 0 (mod Shards) — the "hot" set of the skewed trace.
	totalClusters := cfg.Shards * cfg.ClustersPerShard
	var scheduling func(int) core.SchedulingPolicy
	if cfg.Tenants != nil {
		scheduling = func(int) core.SchedulingPolicy { return tenants.NewDRF(cfg.Tenants) }
	}
	env := buildRMS(federatedClusters(totalClusters), cfg.NodesPerShard, cfg.Shards, federation.Config{
		Recovery:      cfg.Recovery,
		NodeRecovery:  cfg.NodeRecovery,
		FullRecompute: cfg.FullRecompute,
		Scheduling:    scheduling,
		Obs:           cfg.Obs,
	})
	e, fed := env.e, env.fed
	hash := fingerprintEvents(e)

	faults := armFaults(e, fed, chaos.Plan(cfg.Chaos, cfg.Shards), chaos.PlanNodes(cfg.Chaos, env.clusters), cfg.Obs)

	// Rebalancing runs as deterministic "rebalance.check" timer events on the
	// shared clock, interleaving with the fault plan; the invariant checker
	// runs after every migration exactly as it does after every fault.
	var rb *federation.Rebalancer
	if cfg.Rebalance != nil {
		rcfg := *cfg.Rebalance
		rcfg.OnMigration = func(rep federation.MigrationReport) { faults.check(fed, rep.String()) }
		rb = federation.NewRebalancer(fed, rcfg)
		rb.Start()
		defer rb.Stop()
	}

	env.attachPSAPerCluster(cfg.PSATaskDur, nil)

	run := env.submitRigid(rigidTrace{
		jobs: cfg.Jobs, event: "chaos.submit", serverFinish: true,
		place: func(i int) (int, []rms.ConnectOption) {
			var opts []rms.ConnectOption
			if cfg.Tenants != nil && cfg.TenantOf != nil {
				opts = append(opts, rms.WithTenant(cfg.TenantOf(i)))
			}
			// Deterministic skew: the configured fraction of the trace cycles
			// over shard 0's initial clusters (indices ≡ 0 mod Shards), the
			// rest over the whole cluster set.
			if cfg.HotJobFraction > 0 && float64(i%100) < cfg.HotJobFraction*100 {
				return (i % cfg.ClustersPerShard) * cfg.Shards, opts
			}
			return i % totalClusters, opts
		},
		submitted: func(i, cluster int, r *apps.Rigid, sess transport.Session) {
			if cfg.GangFraction == 0 || totalClusters == 1 || float64(i%100) >= cfg.GangFraction*100 {
				return
			}
			// Gang companion: a related request on the next cluster — under
			// the round-robin partition, the next shard. The rigid job filters
			// foreign IDs, so the companion rides the same session; it
			// self-finishes when its ¬P duration runs out. A refused companion
			// (its shard down under KillOnCrash) leaves the job itself intact.
			how := request.Next
			if i%2 == 1 {
				how = request.Coalloc
			}
			_, _ = sess.Request(rms.RequestSpec{
				Cluster:    env.names[(cluster+1)%totalClusters],
				N:          r.N,
				Duration:   r.Duration,
				Type:       request.NonPreempt,
				RelatedHow: how,
				RelatedTo:  r.RequestID(),
			})
		},
	})

	if err := env.run("chaos replay", cfg.MaxSimTime, nil); err != nil {
		return nil, err
	}
	if faults.err != nil {
		return nil, fmt.Errorf("experiments: %w", faults.err)
	}
	if err := fed.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: post-run invariant violated: %w", err)
	}

	st, agg, fs := run.stats(), env.agg, fed.Stats()
	res := &ChaosReplayResult{
		Shards:     cfg.Shards,
		Nodes:      totalClusters * cfg.NodesPerShard,
		Policy:     cfg.Recovery,
		NodePolicy: cfg.NodeRecovery,

		Completed: st.completed, Killed: st.killed, Rejected: st.rejected,
		LostWork: st.lostWork, Resubmits: st.resubmits,
		MeanWait: st.meanWait, MaxWait: st.maxWait,

		Crashes:      faults.count["chaos.crash"],
		Restarts:     faults.count["chaos.restart"],
		NodeFails:    faults.count["chaos.nodefail"],
		NodeRecovers: faults.count["chaos.noderecover"],
		Trace:        faults.trace,

		KilledSessions:   int(fs["killed_sessions"]),
		RequeuedRequests: int(fs["requeued_requests"]),
		ReplayedRequests: int(fs["replayed_requests"]),
		DroppedRequests:  int(fs["dropped_requests"]),
		GangsCommitted:   int(fs["gang_committed"]),
		GangsAborted:     int(fs["gang_aborted"]),
		GangsRetried:     int(fs["gang_retried"]),

		Makespan:  e.Now(),
		Events:    e.Processed(),
		EventHash: *hash,
	}
	if rb != nil {
		res.Migrations = rb.Migrations()
		res.MigratedRequests = rb.MovedRequests()
		res.MigrationTrace = rb.Trace()
	}
	res.ShardChurn = make([]int64, cfg.Shards)
	for i := range res.ShardChurn {
		for _, l := range fed.Shard(i).ClusterLoads() {
			res.ShardChurn[i] += l.Churn
		}
		ss := fed.Shard(i).Stats()
		res.NodeKilled += int(ss["node_killed_requests"])
		res.NodeRequeued += int(ss["node_requeued_requests"])
		res.NodeReduced += int(ss["node_reduced_requests"])
	}
	if cfg.Tenants != nil {
		res.TenantPreempts = fed.TenantPreempts()
	}
	res.TotalArea = agg.TotalArea(res.Makespan)
	res.TotalWaste = agg.TotalWaste()
	res.UsedFraction = agg.UsedFraction(res.Nodes, res.Makespan)
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot(res.Makespan)
		res.Snapshot = &snap
	}
	return res, nil
}

// faultLog is what armFaults records: the trace (one line per executed fault,
// in execution order), the executed faults by event name, and the first error
// — a fault the federation refused, or an invariant violation after a fault or
// a migration.
type faultLog struct {
	trace []string
	count map[string]int
	err   error
}

// check runs the federation's invariant checker after the event `after`; the
// first violation is kept.
func (l *faultLog) check(fed *federation.Federator, after string) {
	if err := fed.CheckInvariants(); err != nil && l.err == nil {
		l.err = fmt.Errorf("invariant violated after %q: %w", after, err)
	}
}

// armFaults schedules every fault of the two plans as one simulator event that
// applies it, appends the federation's report to the trace and checks the
// invariants. Fault→recovery times land in reg's "chaos.recovery_seconds"
// (shard outage per plan) and "chaos.node_recovery_seconds" (machine repair)
// histograms and node faults in its event ring; the federation records shard
// crash/restart events itself.
func armFaults(e *sim.Engine, fed *federation.Federator, shardPlan []chaos.Fault, nodePlan []chaos.NodeFault, reg *obs.Registry) *faultLog {
	faults := &faultLog{count: make(map[string]int)}
	hRecovery, hNodeRecovery := reg.Hist("chaos.recovery_seconds"), reg.Hist("chaos.node_recovery_seconds")
	at := func(t float64, name string, apply func() (fmt.Stringer, error)) {
		e.At(t, name, func() {
			rep, err := apply()
			if err != nil {
				if faults.err == nil {
					faults.err = fmt.Errorf("%s at t=%g refused: %w", name, t, err)
				}
				return
			}
			faults.count[name]++
			line := fmt.Sprintf("t=%.6f %s", e.Now(), rep)
			faults.trace = append(faults.trace, line)
			faults.check(fed, line)
		})
	}
	for _, f := range shardPlan {
		at(f.CrashAt, "chaos.crash", func() (fmt.Stringer, error) { return fed.CrashShard(f.Shard), nil })
		at(f.RestartAt, "chaos.restart", func() (fmt.Stringer, error) {
			hRecovery.Record(f.RestartAt - f.CrashAt)
			return fed.RestartShard(f.Shard), nil
		})
	}
	for _, f := range nodePlan {
		at(f.FailAt, "chaos.nodefail", func() (fmt.Stringer, error) {
			rep, err := fed.FailNodes(f.Cluster, []int{f.Node})
			if err == nil {
				reg.Event(obs.Event{Time: f.FailAt, Type: obs.EvNodeFail, Cluster: string(f.Cluster), Value: 1})
			}
			return rep, err
		})
		at(f.RecoverAt, "chaos.noderecover", func() (fmt.Stringer, error) {
			rep, err := fed.RecoverNodes(f.Cluster, []int{f.Node})
			if err == nil {
				hNodeRecovery.Record(f.RecoverAt - f.FailAt)
				reg.Event(obs.Event{Time: f.RecoverAt, Type: obs.EvNodeRecover, Cluster: string(f.Cluster), Value: 1})
			}
			return rep, err
		})
	}
	return faults
}
