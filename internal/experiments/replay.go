package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/tenants"
	"coormv2/internal/workload"
)

// replayConfig parametrizes the one trace replay: a rigid-job trace,
// optionally with scavenging PSAs and a predictably-evolving application,
// replayed through a CooRMv2 RMS on a simulated clock (§5). Every replay
// experiment of the registry is a preset of it. The paper does not evaluate
// rigid traces ("as is commonly done in the community", §5.1) but CooRMv2
// supports them (§4); the replay adds the reproduction's extensions: shards,
// seeded faults, live cluster migration, cross-shard gangs, tenant queues.
type replayConfig struct {
	// Jobs is the rigid trace, assigned to clusters round-robin (see
	// HotJobFraction for the skewed variant). A job wider than its cluster
	// is clamped to the cluster.
	Jobs []workload.Job
	// Shards is the scheduler shard count; below 1 it is 1, the single RMS.
	Shards int
	// NodesPerShard sizes each cluster (a shard starts with ClustersPerShard
	// of them).
	NodesPerShard int
	// ClustersPerShard is the number of clusters initially partitioned onto
	// each shard; 0 or 1 selects the classic one-cluster-per-shard layout.
	ClustersPerShard int
	// HotJobFraction, in [0,1], pins that fraction of the trace onto the
	// clusters initially owned by shard 0 — the load skew the rebalancer
	// exists to dissolve. 0 spreads the trace over all clusters evenly.
	HotJobFraction float64
	// Rebalance, when non-nil, runs a federation.Rebalancer with this
	// configuration for the whole replay, with the invariant checker as its
	// OnMigration hook.
	Rebalance *federation.RebalancerConfig
	// PSATaskDur, when positive, adds one scavenging PSA per cluster.
	PSATaskDur float64
	// PSATenant, when set, tags cluster i's PSA with that tenant queue.
	PSATenant func(cluster int) string
	// Evolving, when non-empty, adds a fully-predictably evolving
	// application (§4) with these segments on the first cluster. Segment
	// node counts are clamped to NodesPerShard.
	Evolving []apps.Segment
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
	// Chaos, when non-zero, seeds and shapes the fault plans, armed on the
	// simulator with the federation invariant checker after every fault.
	Chaos chaos.Config
	// Obs, when non-nil, is threaded through the RMS and the armed fault
	// plans; replayResult.Snapshot is then its end-of-run snapshot. Durations
	// are simulated, so same-seed snapshots are byte-identical.
	Obs *obs.Registry
	// FullRecompute disables incremental scheduling (the incremental≡full
	// differential's oracle).
	FullRecompute bool
	// Tenants, when non-nil, switches every shard from connection-order
	// FIFO to the DRF queue-hierarchy policy over this (sealed) tree — one
	// policy instance per shard, shared tree, so a queue's per-cluster
	// guarantees follow its clusters through migration.
	Tenants *tenants.Tree
	// TenantOf, when set, tags rigid job i's session with its tenant queue.
	// Untagged sessions land in the default queue.
	TenantOf func(job int) string
	// EndTimerSettles settles a rigid job on its own end timer, which is
	// exact (and cheaper) on a fault-free run. Otherwise a job settles on the
	// server-side finish/reap/kill notifications — the only signals that
	// survive crash/requeue re-runs correctly.
	EndTimerSettles bool
}

// replayResult aggregates one replay. Every field is a pure function of the
// configuration: the determinism tests pin two same-seed runs to identical
// results, including the fault trace and the event-stream fingerprint.
type replayResult struct {
	Nodes int // node count over every cluster

	// Completed/Killed/Rejected partition the rigid jobs: finished normally,
	// killed with their crashed shard (KillOnCrash), or refused at
	// submission because the target shard was down (KillOnCrash).
	Completed int
	Killed    int
	Rejected  int
	// Fates is how each rigid job ended, in trace order.
	Fates []jobFate

	MeanWait float64 // completed rigid jobs only
	MaxWait  float64
	Makespan float64

	// RigidArea is the rigid node·s of the trace after clamping node counts
	// to the cluster size; ClusterRigidArea splits it by cluster index.
	RigidArea        float64
	ClusterRigidArea []float64
	// PSAUseful is the node·s the scavenging PSAs computed, waste excluded.
	PSAUseful float64

	Crashes  int
	Restarts int

	// Node-fault accounting (zero when Chaos.NodeMTTF == 0). NodeFails and
	// NodeRecovers count unique injected machine events; NodeKilled/
	// NodeRequeued/NodeReduced count affected requests by the action taken
	// (re-applications after a shard restart included). LostWork sums the
	// rigid jobs' node·seconds of lost computation (killed runs, repeated
	// requeued runs); Resubmits counts cooperative checkpoint-resubmissions.
	NodeFails    int
	NodeRecovers int
	NodeKilled   int
	NodeRequeued int
	NodeReduced  int
	LostWork     float64
	Resubmits    int

	// The rebalancer's work (zero without one).
	Migrations       int
	MigratedRequests int
	MigrationTrace   []string
	// ShardChurn is each shard's cumulative accepted-request churn at the
	// end of the run, summed over the clusters it then owns (churn counters
	// migrate with their cluster).
	ShardChurn []int64

	// Fault-recovery counters over all applications (PSAs included).
	KilledSessions   int
	RequeuedRequests int
	ReplayedRequests int
	DroppedRequests  int

	// Cross-shard reservations: committed, aborted for good, and retried
	// (release → re-place).
	GangsCommitted int
	GangsAborted   int
	GangsRetried   int

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
	// summed over running shards.
	TenantPreempts map[string]int64
	Snapshot       *obs.Snapshot // nil unless replayConfig.Obs was set
}

// rigidUtilization is the rigid area over the capacity of the whole run.
func (r *replayResult) rigidUtilization() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.RigidArea / (float64(r.Nodes) * r.Makespan)
}

// evolvingWatch wraps the predictable-evolving app's handler to observe the
// start of its last segment (the app itself has no completion callback).
type evolvingWatch struct {
	*apps.PredictableEvolving
	onStart func(id request.ID, nodeIDs []int)
}

func (w *evolvingWatch) OnStart(id request.ID, nodeIDs []int) {
	w.PredictableEvolving.OnStart(id, nodeIDs)
	w.onStart(id, nodeIDs)
}

// replay replays a rigid-job stream through a CooRMv2 RMS until every job
// and application has settled. With a fault plan the federation invariant
// checker runs after every fault and migration, and it runs once more after
// the run. Any violation, or a fault the federation refuses, is an error.
func replay(cfg replayConfig) (*replayResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty job stream")
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
	armed := cfg.Chaos != chaos.Config{}
	cfg.Shards = max(cfg.Shards, 1)
	cfg.ClustersPerShard = max(cfg.ClustersPerShard, 1)

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

	faults := &faultLog{}
	if armed {
		faults = armFaults(e, fed, chaos.Plan(cfg.Chaos, cfg.Shards), chaos.PlanNodes(cfg.Chaos, env.clusters), cfg.Obs)
	}

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

	var psas []*apps.PSA
	var psaIDs []int
	if cfg.PSATaskDur > 0 {
		for i, c := range env.names {
			var opts []rms.ConnectOption
			if cfg.PSATenant != nil {
				opts = append(opts, rms.WithTenant(cfg.PSATenant(i)))
			}
			p, id := env.attachPSA(c, cfg.PSATaskDur, nil, opts...)
			psas, psaIDs = append(psas, p), append(psaIDs, id)
		}
	}

	if len(cfg.Evolving) > 0 {
		segs := make([]apps.Segment, len(cfg.Evolving))
		copy(segs, cfg.Evolving)
		for i := range segs {
			segs[i].N = min(segs[i].N, cfg.NodesPerShard)
		}
		env.expect(1)
		ev := apps.NewPredictableEvolving(env.clk, env.names[0], segs)
		last := len(segs) - 1
		watch := &evolvingWatch{PredictableEvolving: ev}
		watch.onStart = func(request.ID, []int) {
			if ev.SegmentStarted(last) {
				env.e.After(segs[last].Duration, "replay.evolving-end", env.done)
			}
		}
		ev.Attach(env.connect(watch))
		if err := ev.Submit(); err != nil {
			return nil, err
		}
	}

	run := env.submitRigid(cfg)

	if err := env.run("replay", maxReplayTime, nil); err != nil {
		return nil, err
	}
	if faults.err != nil {
		return nil, fmt.Errorf("experiments: %w", faults.err)
	}

	st, agg := run.stats(), env.agg
	res := &replayResult{
		Nodes: totalClusters * cfg.NodesPerShard,

		Completed: st.completed, Killed: st.killed, Rejected: st.rejected, Fates: run.fates,
		LostWork: st.lostWork, Resubmits: st.resubmits,
		MeanWait: st.meanWait, MaxWait: st.maxWait,
		RigidArea: run.area, ClusterRigidArea: run.clusterArea,

		Crashes:      faults.count["chaos.crash"],
		Restarts:     faults.count["chaos.restart"],
		NodeFails:    faults.count["chaos.nodefail"],
		NodeRecovers: faults.count["chaos.noderecover"],
		Trace:        faults.trace,

		Makespan:  e.Now(),
		Events:    e.Processed(),
		EventHash: *hash,
	}
	for i, p := range psas {
		res.PSAUseful += math.Max(0, agg.Area(psaIDs[i], res.Makespan)-p.Waste())
	}
	if err := fed.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: post-run invariant violated: %w", err)
	}
	fs := fed.Stats()
	res.KilledSessions = int(fs["killed_sessions"])
	res.RequeuedRequests = int(fs["requeued_requests"])
	res.ReplayedRequests = int(fs["replayed_requests"])
	res.DroppedRequests = int(fs["dropped_requests"])
	res.GangsCommitted = int(fs["gang_committed"])
	res.GangsAborted = int(fs["gang_aborted"])
	res.GangsRetried = int(fs["gang_retried"])
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
	res.TenantPreempts = fed.TenantPreempts()
	if rb != nil {
		res.Migrations = rb.Migrations()
		res.MigratedRequests = rb.MovedRequests()
		res.MigrationTrace = rb.Trace()
	}
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
