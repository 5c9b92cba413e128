package experiments

import (
	"fmt"
	"strconv"
	"time"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/federation"
	"coormv2/internal/netchaos"
	"coormv2/internal/obs"
	"coormv2/internal/rms"
	"coormv2/internal/stats"
	"coormv2/internal/workload"
)

// Experiment is one entry of the experiment table: what `coorm-exp -exp
// <Name>` runs and the section title it prints.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (*Report, error)
}

// Experiments lists every experiment in the order `-exp all` runs them.
var Experiments = []Experiment{
	{"fig1", "Fig. 1 — AMR working-set evolutions", fig1Exp},
	{"fig2", "Fig. 2 — speed-up model fit", fig2Exp},
	{"fig3", "Fig. 3 — equivalent static allocation end-time increase", fig3Exp},
	{"fig4", "Fig. 4 — static allocation choices at 75% target efficiency", fig4Exp},
	{"fig9", "Fig. 9 — scheduling with spontaneous updates", fig9Exp},
	{"fig10", "Fig. 10 — scheduling with announced updates", fig10Exp},
	{"fig11", "Fig. 11 — efficient resource filling (two PSAs)", fig11Exp},
	{"ablation", "Ablation — PSA graceful release and window selection", ablationExp},
	{"accounting", "Accounting — used vs reserved areas (§7 extension)", accountingExp},
	{"replay", "Replay — synthetic rigid trace with and without a scavenging PSA", replayExp},
	{"federated", "Federated — rigid trace + PSAs + evolving app across scheduler shards", federatedExp},
	{"chaos", "Chaos — federated replay under seeded shard crash/recovery", chaosExp},
	{"nodechaos", "Node chaos — machine failures under kill/requeue/cooperative recovery", nodeChaosExp},
	{"netchaos", "Net chaos — wire faults vs reconnect+resume and kill-and-replay (real TCP)", netChaosExp},
	{"gang", "Gang — cross-shard two-phase reservations under chaos", gangExp},
	{"rebalance", "Rebalance — skewed federated workload with live cluster migration on/off", rebalanceExp},
	{"tenants", "Tenants — multi-tenant queue hierarchy, DRF + quota preemption vs FIFO", tenantsExp},
}

// Options is the coorm-exp command line: one field per flag besides -exp
// and -report. Every experiment reads the fields it needs.
type Options struct {
	Seed  int64
	Full  bool // paper scale (1000 steps, 3.16 TiB) instead of the reduced scale
	Steps int  // profile-length override (0 = scale default)

	Shards int // shard count (federated: maximum, swept in powers of two)
	// chaos: expected crashes per shard per simulated hour, mean restart delay.
	CrashRate, RestartDelay float64
	// nodechaos: per-cluster machine MTTF and mean repair time, simulated s.
	NodeMTTF, NodeRepair float64
	// rebalance: topology, trace skew, load-check period, migration trigger.
	ClustersPerShard                      int
	HotFrac, RebalanceInterval, SkewRatio float64
	GangFrac                              float64 // gang: fraction of jobs with a cross-shard leg
	// tenants: queue count (t0 guaranteed, t1 hot) and t1's share of the trace.
	Tenants       int
	TenantHotFrac float64
	// netchaos: job count, mean wall-clock fault gap and schedule horizon, s.
	NetJobs                 int
	NetFaultGap, NetHorizon float64
}

// DefaultOptions returns the coorm-exp flag defaults.
func DefaultOptions() Options {
	return Options{
		Seed: 1, Shards: 4, CrashRate: 2, RestartDelay: 180,
		NodeMTTF: 1200, NodeRepair: 600,
		ClustersPerShard: 4, HotFrac: 0.75, RebalanceInterval: 120, SkewRatio: 2,
		GangFrac: 0.5, Tenants: 3, TenantHotFrac: 0.5,
		NetJobs: 6, NetFaultGap: 0.15, NetHorizon: 1.2,
	}
}

// scale bundles the per-run sizing knobs of the figure experiments.
type scale struct {
	steps int
	smax  float64
	// PSA task durations (Fig. 9/10 use psa1 only).
	psa1, psa2 float64
	announces  []float64
	seeds      []int64
}

func (o Options) scale() scale {
	s := scale{
		steps: 60, smax: 50 * 1024, psa1: 120, psa2: 12,
		announces: []float64{0, 30, 60, 90, 110, 120, 130, 140},
		seeds:     []int64{1, 2, 3},
	}
	if o.Full {
		s = scale{
			steps: amr.ProfileSteps, smax: amr.DefaultSmax, psa1: 600, psa2: 60,
			announces: []float64{0, 100, 200, 300, 400, 500, 550, 600, 650, 700},
			seeds:     []int64{1, 2, 3, 4, 5},
		}
	}
	if o.Steps > 0 {
		s.steps = o.Steps
	}
	return s
}

func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func sig(v float64) string             { return strconv.FormatFloat(v, 'g', 6, 64) }
func hex16(v uint64) string            { return fmt.Sprintf("%016x", v) }

var itoa = strconv.Itoa

// synthetic draws a seeded rigid trace with the power-of-two bias every
// experiment uses.
func synthetic(seed int64, jobs, maxNodes int, meanInterArr, meanRuntime float64) []workload.Job {
	return workload.Synthetic(stats.NewRand(seed), workload.SyntheticConfig{
		Jobs: jobs, MaxNodes: maxNodes, MeanInterArr: meanInterArr, MeanRuntime: meanRuntime,
		PowerOfTwoBias: 0.5,
	})
}

// traceNote is the one-line trace summary heading a replay report.
func traceNote(jobs []workload.Job, suffix string) string {
	st := workload.Summarize(jobs)
	return fmt.Sprintf("trace: %d jobs, %.3g node·s, max %d nodes%s", st.Jobs, st.TotalArea, st.MaxNodes, suffix)
}

// sweep runs one replay per variant, in order, and appends the rows each
// yields to rep. The variant at index obsAt is handed an observability
// registry, and the snapshot its run returns rides along as rep.Obs.
func sweep[V any](rep *Report, variants []V, obsAt int, run func(V, *obs.Registry) ([][]string, *obs.Snapshot, error)) (*Report, error) {
	for i, v := range variants {
		var reg *obs.Registry
		if i == obsAt {
			reg = obs.NewRegistry()
		}
		rows, snap, err := run(v, reg)
		if err != nil {
			return nil, err
		}
		if i == obsAt {
			rep.Obs = snap
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// replayVariant is one run of a replay table: its leading label columns and
// its replay configuration (replaySweep fills in Jobs and Obs).
type replayVariant struct {
	lead []string
	cfg  replayConfig
}

// replaySweep replays jobs once per variant, in order, through the one
// replay; cols renders a result's rows, each after the variant's lead. The
// variant at obsAt (-1: none) carries the observability registry.
func replaySweep(rep *Report, jobs []workload.Job, variants []replayVariant, obsAt int, cols func(*replayResult) [][]string) (*Report, error) {
	return sweep(rep, variants, obsAt, func(v replayVariant, reg *obs.Registry) ([][]string, *obs.Snapshot, error) {
		v.cfg.Jobs, v.cfg.Obs = jobs, reg
		res, err := replay(v.cfg)
		if err != nil {
			return nil, nil, err
		}
		rows := cols(res)
		for i, row := range rows {
			rows[i] = append(v.lead[:len(v.lead):len(v.lead)], row...)
		}
		return rows, res.Snapshot, nil
	})
}

// replayExp replays one rigid trace through a single RMS, with and without
// a scavenging PSA filling the idle nodes preemptibly: the malleable-fill
// gain on a rigid trace.
func replayExp(o Options) (*Report, error) {
	jobs := synthetic(o.Seed, 100, 32, 180, 1800)
	rep := &Report{
		Name:   "replay",
		Notes:  []string{traceNote(jobs, "")},
		Header: []string{"setup", "mean-wait-s", "max-wait-s", "makespan-s", "rigid-util-%", "total-util-%"},
	}
	variants := []replayVariant{
		{[]string{"rigid only"}, replayConfig{NodesPerShard: 64, EndTimerSettles: true}},
		{[]string{"rigid + scavenging PSA"}, replayConfig{NodesPerShard: 64, PSATaskDur: 300, EndTimerSettles: true}},
	}
	return replaySweep(rep, jobs, variants, -1, func(res *replayResult) [][]string {
		return [][]string{{
			fixed(res.MeanWait, 1), fixed(res.MaxWait, 1), fixed(res.Makespan, 0),
			fixed(100*res.rigidUtilization(), 2),
			fixed(100*(res.RigidArea+res.PSAUseful)/(float64(res.Nodes)*res.Makespan), 2),
		}}
	})
}

// federatedExp replays one rigid trace, with a scavenging PSA per cluster
// and a predictably-evolving application, through federations of growing
// shard count. The total node count is fixed (per-shard clusters shrink as
// the shard count grows) so the rows compare scheduling topology, not
// capacity. A 1-shard federation is byte-identical to a single RMS (see the
// differential test), so the first row doubles as the unsharded baseline.
func federatedExp(o Options) (*Report, error) {
	jobs := synthetic(o.Seed, 200, 16, 60, 1200)
	rep := &Report{
		Name:  "federated",
		Notes: []string{traceNote(jobs, "/job")},
		Header: []string{"shards", "nodes", "jobs", "mean-wait-s", "max-wait-s", "makespan-s",
			"rigid-util-%", "used-%", "events"},
	}
	const totalNodes = 128
	var variants []replayVariant
	for shards := 1; shards <= o.Shards; shards *= 2 {
		variants = append(variants, replayVariant{[]string{itoa(shards)}, replayConfig{
			Shards:          shards,
			NodesPerShard:   totalNodes / shards,
			PSATaskDur:      300,
			Evolving:        []apps.Segment{{N: 8, Duration: 1800}, {N: 16, Duration: 1800}, {N: 4, Duration: 1800}},
			EndTimerSettles: true,
		}})
	}
	return replaySweep(rep, jobs, variants, -1, func(res *replayResult) [][]string {
		return [][]string{{
			itoa(res.Nodes), itoa(res.Completed),
			fixed(res.MeanWait, 1), fixed(res.MaxWait, 1), fixed(res.Makespan, 0),
			fixed(100*res.rigidUtilization(), 2), fixed(100*res.UsedFraction, 2),
			strconv.FormatInt(res.Events, 10),
		}}
	})
}

// chaosConfig builds the chaos-scenario configuration (minus the trace) for
// one seed/policy; rebalance additionally arms the cluster-migration loop,
// and skewed pins the hot fraction of the trace onto shard 0's clusters.
func (o Options) chaosConfig(seed int64, pol federation.RecoveryPolicy, skewed, rebalance bool) replayConfig {
	mttf := 0.0 // -crash-rate 0 disables fault injection (chaos.Plan is empty for MTTF<=0)
	if o.CrashRate > 0 {
		mttf = 3600.0 / o.CrashRate
	}
	cfg := replayConfig{
		Shards:        o.Shards,
		NodesPerShard: 64,
		PSATaskDur:    300,
		Recovery:      pol,
		Chaos: chaos.Config{
			Seed:             seed,
			MTTF:             mttf,
			MeanRestartDelay: o.RestartDelay,
			Horizon:          3 * 3600,
		},
	}
	if skewed {
		cfg.ClustersPerShard = o.ClustersPerShard
		cfg.HotJobFraction = o.HotFrac
		cfg.NodesPerShard = 32
	}
	if rebalance {
		cfg.Rebalance = &federation.RebalancerConfig{
			Interval:  o.RebalanceInterval,
			SkewRatio: o.SkewRatio,
		}
	}
	return cfg
}

// policySeeds crosses the policies with the seeds seed, seed+1, seed+2.
func policySeeds[P fmt.Stringer](seed int64, pols []P, cfg func(P, int64) replayConfig) []replayVariant {
	var vs []replayVariant
	for _, pol := range pols {
		for s := seed; s < seed+3; s++ {
			vs = append(vs, replayVariant{[]string{pol.String(), strconv.FormatInt(s, 10)}, cfg(pol, s)})
		}
	}
	return vs
}

// faultDelaysErr refuses a mean shard restart delay or machine repair time
// the fault plans cannot draw from: a negative mean puts a restart or a
// recovery before its fault, possibly before 0, where the simulator refuses
// to schedule it (sim.Engine.At), and a NaN one never reaches the plan's
// horizon.
func (o Options) faultDelaysErr() error {
	for _, d := range []struct {
		flag string
		mean float64
	}{{"restart delay", o.RestartDelay}, {"node repair time", o.NodeRepair}} {
		if !(d.mean >= 0) { // NaN included
			return fmt.Errorf("experiments: %s %g must be non-negative", d.flag, d.mean)
		}
	}
	return nil
}

// chaosSweep replays the shared 150-job trace once per variant; cols renders
// a result's columns after the variant's lead. Same seed ⇒ identical row,
// including the event-stream hash (the determinism contract of
// internal/chaos). The first (baseline) run carries the observability
// registry.
func chaosSweep(name string, o Options, topology string, header []string, variants []replayVariant, cols func(*replayResult) []string) (*Report, error) {
	if err := o.faultDelaysErr(); err != nil {
		return nil, err
	}
	jobs := synthetic(o.Seed, 150, 16, 60, 1200)
	rep := &Report{Name: name, Notes: []string{traceNote(jobs, "/job; "+topology)}, Header: header}
	return replaySweep(rep, jobs, variants, 0, func(res *replayResult) [][]string { return [][]string{cols(res)} })
}

// chaosExp replays one rigid trace through a sharded federation while a
// seeded fault plan crashes and restarts shards, once per recovery policy
// and seed.
func chaosExp(o Options) (*Report, error) {
	o.Shards = max(o.Shards, 2)
	return chaosSweep("chaos", o,
		fmt.Sprintf("%d shards, %.3g crashes/shard/h", o.Shards, o.CrashRate),
		[]string{"policy", "seed", "crashes", "done", "killed", "rejected",
			"requeued", "replayed", "dropped", "mean-wait-s", "makespan-s", "used-%", "event-hash"},
		policySeeds(o.Seed, []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash},
			func(pol federation.RecoveryPolicy, s int64) replayConfig {
				return o.chaosConfig(s, pol, false, false)
			}),
		func(res *replayResult) []string {
			return []string{
				itoa(res.Crashes), itoa(res.Completed), itoa(res.Killed), itoa(res.Rejected),
				itoa(res.RequeuedRequests), itoa(res.ReplayedRequests), itoa(res.DroppedRequests),
				fixed(res.MeanWait, 1), fixed(res.Makespan, 0), fixed(100*res.UsedFraction, 2),
				hex16(res.EventHash),
			}
		})
}

// gangExp measures cross-shard gang scheduling: a fraction of the rigid
// jobs carries a NEXT/COALLOC companion leg on the next shard, driving the
// two-phase reservation coordinator (hold → align → commit/abort) while the
// seeded fault plan crashes shards — participant and coordinator sides
// alike — mid-reservation. The abort-rate column is the fraction of gangs
// the coordinator gave up on (crashed holds under the kill policy plus
// unfittable legs past the backoff budget).
func gangExp(o Options) (*Report, error) {
	o.Shards = max(o.Shards, 2)
	return chaosSweep("gang", o,
		fmt.Sprintf("%d shards, %.3g crashes/shard/h, gang fraction %.2g", o.Shards, o.CrashRate, o.GangFrac),
		[]string{"policy", "seed", "crashes", "done", "committed", "aborted",
			"retried", "abort-%", "mean-wait-s", "makespan-s", "used-%", "event-hash"},
		policySeeds(o.Seed, []federation.RecoveryPolicy{federation.KillOnCrash, federation.RequeueOnCrash},
			func(pol federation.RecoveryPolicy, s int64) replayConfig {
				cfg := o.chaosConfig(s, pol, false, false)
				cfg.GangFraction = o.GangFrac
				return cfg
			}),
		func(res *replayResult) []string {
			abortPct := 0.0
			if n := res.GangsCommitted + res.GangsAborted; n > 0 {
				abortPct = 100 * float64(res.GangsAborted) / float64(n)
			}
			return []string{
				itoa(res.Crashes), itoa(res.Completed),
				itoa(res.GangsCommitted), itoa(res.GangsAborted), itoa(res.GangsRetried), fixed(abortPct, 1),
				fixed(res.MeanWait, 1), fixed(res.Makespan, 0), fixed(100*res.UsedFraction, 2),
				hex16(res.EventHash),
			}
		})
}

// nodeChaosExp compares the three node-recovery policies on the same seeded
// machine-failure schedule: shard crashes are disabled, so every difference
// between rows of a seed comes from how dying machines are handled. The
// lost-work column (node·s of computation killed or repeated on rigid jobs)
// is the §3.1.4 argument for cooperative recovery in one number.
func nodeChaosExp(o Options) (*Report, error) {
	o.Shards = max(o.Shards, 2)
	return chaosSweep("nodechaos", o,
		fmt.Sprintf("%d shards, node MTTF %.3gs, repair %.3gs", o.Shards, o.NodeMTTF, o.NodeRepair),
		[]string{"policy", "seed", "node-fails", "recovers", "done", "killed",
			"n-killed", "n-requeued", "n-reduced", "lost-node-s", "resubmits",
			"mean-wait-s", "used-%", "event-hash"},
		policySeeds(o.Seed, []rms.NodeRecoveryPolicy{rms.KillOnNodeFailure, rms.RequeueOnNodeFailure, rms.CooperativeOnNodeFailure},
			func(pol rms.NodeRecoveryPolicy, s int64) replayConfig {
				cfg := o.chaosConfig(s, federation.RequeueOnCrash, false, false)
				cfg.Chaos.MTTF = 0 // machine faults only — no shard crashes
				cfg.Chaos.NodeMTTF = o.NodeMTTF
				cfg.Chaos.MeanNodeRecovery = o.NodeRepair
				cfg.NodeRecovery = pol
				return cfg
			}),
		func(res *replayResult) []string {
			return []string{
				itoa(res.NodeFails), itoa(res.NodeRecovers), itoa(res.Completed), itoa(res.Killed),
				itoa(res.NodeKilled), itoa(res.NodeRequeued), itoa(res.NodeReduced),
				fixed(res.LostWork, 0), itoa(res.Resubmits),
				fixed(res.MeanWait, 1), fixed(100*res.UsedFraction, 2),
				hex16(res.EventHash),
			}
		})
}

// rebalanceExp replays one skewed rigid trace — the configured hot fraction
// pinned to shard 0's clusters — with live cluster migration off and on,
// with and without the chaos fault plan. The imbalance column is max/mean of
// the per-shard end-state churn (1.00 = perfectly balanced).
func rebalanceExp(o Options) (*Report, error) {
	if !(o.RebalanceInterval > 0) { // NaN included
		return nil, fmt.Errorf("experiments: rebalance interval %g must be positive", o.RebalanceInterval)
	}
	if err := o.faultDelaysErr(); err != nil {
		return nil, err
	}
	o.Shards = max(o.Shards, 2)
	o.ClustersPerShard = max(o.ClustersPerShard, 2)
	var variants []replayVariant
	for _, chaosOn := range []bool{false, true} {
		for _, rebalance := range []bool{false, true} {
			v := o
			if !chaosOn {
				v.CrashRate = 0
			}
			variants = append(variants, replayVariant{
				[]string{strconv.FormatBool(rebalance)},
				v.chaosConfig(o.Seed, federation.RequeueOnCrash, true, rebalance),
			})
		}
	}
	return chaosSweep("rebalance", o,
		fmt.Sprintf("%d shards × %d clusters, %.0f%% hot", o.Shards, o.ClustersPerShard, 100*o.HotFrac),
		[]string{"rebalance", "crashes", "migrations", "moved-reqs", "done",
			"mean-wait-s", "makespan-s", "imbalance", "used-%", "event-hash"},
		variants,
		func(res *replayResult) []string {
			var maxChurn, sumChurn int64
			for _, c := range res.ShardChurn {
				sumChurn += c
				maxChurn = max(maxChurn, c)
			}
			skew := 1.0
			if sumChurn > 0 {
				skew = float64(maxChurn) * float64(len(res.ShardChurn)) / float64(sumChurn)
			}
			return []string{
				itoa(res.Crashes), itoa(res.Migrations), itoa(res.MigratedRequests), itoa(res.Completed),
				fixed(res.MeanWait, 1), fixed(res.Makespan, 0), fixed(skew, 3),
				fixed(100*res.UsedFraction, 2), hex16(res.EventHash),
			}
		})
}

// netChaosExp measures the transport's wire-level resilience on real TCP
// connections: a sequential job stream runs through a netchaos proxy that
// severs, partitions, half-opens, and delays the wire on a seeded
// schedule, once with reconnect+resume (grace window, idempotent retries)
// and once with the kill-and-replay baseline (a dropped connection kills
// the session; the driver re-dials and resubmits). The trace-hash column
// pins the schedule's determinism: same seed ⇒ same faults for both modes.
// This experiment runs on the wall clock — rows measure the actual
// transport, so timing columns vary run to run; the invariant columns
// (lost acks, duplicate starts) must not.
func netChaosExp(o Options) (*Report, error) {
	rep := &Report{
		Name: "netchaos",
		Notes: []string{fmt.Sprintf("wire faults over real TCP: %d jobs, mean fault gap %.3gs, horizon %.3gs; resume grace 10s",
			o.NetJobs, o.NetFaultGap, o.NetHorizon)},
		Header: []string{"mode", "seed", "done", "reconnects", "resubmits",
			"lost-acks", "dup-starts", "recover-p50-ms", "recover-p99-ms",
			"elapsed-s", "trace-hash"},
	}
	var variants []netChaosConfig
	for _, resume := range []bool{true, false} {
		for s := o.Seed; s < o.Seed+2; s++ {
			variants = append(variants, netChaosConfig{
				Seed: s, Jobs: o.NetJobs, Resume: resume,
				Faults: netchaos.Config{
					Seed:        s,
					MeanBetween: o.NetFaultGap,
					MeanDur:     o.NetFaultGap / 4,
					Horizon:     o.NetHorizon,
					MaxFaults:   8,
				},
				Grace: 10 * time.Second,
			})
		}
	}
	// runNetChaos keeps a registry of its own; the first run's snapshot is
	// the one reported.
	return sweep(rep, variants, 0, func(cfg netChaosConfig, _ *obs.Registry) ([][]string, *obs.Snapshot, error) {
		res, err := runNetChaos(cfg)
		if err != nil {
			return nil, nil, err
		}
		mode := "resume"
		if !cfg.Resume {
			mode = "kill-replay"
		}
		return [][]string{{
			mode, strconv.FormatInt(cfg.Seed, 10),
			itoa(res.Completed), itoa(res.Reconnects), itoa(res.Resubmits),
			itoa(res.LostAcks), itoa(res.DupStarts),
			fixed(res.RecoverP50*1000, 2), fixed(res.RecoverP99*1000, 2),
			fixed(res.Elapsed, 2), hex16(res.TraceHash),
		}}, res.Snapshot, nil
	})
}
