package coormv2

// Benchmark harness: one benchmark per figure of the paper's evaluation,
// plus the scheduler-throughput claim of §3.2 ("approximately 500
// requests/second on a single core" of a 2009-era CPU). Benchmarks run the
// same code paths as the full experiments at reduced scale so `go test
// -bench=.` stays tractable; `cmd/coorm-exp -full` regenerates the
// full-scale figures.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/chaos"
	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/experiments"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/stats"
	"coormv2/internal/tenants"
	"coormv2/internal/transport"
	"coormv2/internal/view"
	"coormv2/internal/workload"
)

const (
	benchSteps = 60
	benchSmax  = 50 * 1024 // MiB
)

// BenchmarkFig1ProfileGeneration regenerates the working-set evolution
// profiles of Fig. 1.
func BenchmarkFig1ProfileGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles := experiments.Fig1(experiments.Fig1Config{Seeds: []int64{1, 2, 3, 4}})
		if len(profiles) != 4 {
			b.Fatal("bad profile count")
		}
	}
}

// BenchmarkFig2SpeedupFit fits the speed-up model of Fig. 2 and checks the
// paper's 15 % error bound.
func BenchmarkFig2SpeedupFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fixed seed: the 15 % acceptance bound is a property of this
		// dataset, not of arbitrary noise draws (a ±3σ outlier in the
		// synthetic grid can legitimately exceed it).
		res, err := experiments.Fig2(1, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxRelError >= 0.15 {
			b.Fatalf("fit error %v out of the paper's bound", res.MaxRelError)
		}
	}
}

// BenchmarkFig3StaticVsDynamic computes the end-time increase of the
// equivalent static allocation (Fig. 3).
func BenchmarkFig3StaticVsDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(1, benchSteps, []float64{0.25, 0.5, 0.75})
		if len(rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFig4StaticChoices computes the static-allocation choice bands
// (Fig. 4).
func BenchmarkFig4StaticChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(1, benchSteps, []float64{0.5, 1, 2}, 0)
		if len(rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFig9Spontaneous runs the spontaneous-update scheduling
// experiment of Fig. 9 (one AMR + one PSA, static and dynamic) at reduced
// scale.
func BenchmarkFig9Spontaneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(experiments.Fig9Config{
			Overcommits: []float64{1},
			Seed:        1, Steps: benchSteps, Smax: benchSmax, PSATaskDur: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].DynamicArea <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

// BenchmarkFig10Announced runs the announced-update experiment of Fig. 10
// at reduced scale.
func BenchmarkFig10Announced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Fig10Config{
			AnnounceIntervals: []float64{0, 90},
			Seed:              1, Steps: benchSteps, Smax: benchSmax, PSATaskDur: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFig11Filling runs the two-PSA filling experiment of Fig. 11 at
// reduced scale (one seed, both policies).
func BenchmarkFig11Filling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(experiments.Fig11Config{
			AnnounceIntervals: []float64{60},
			Seeds:             []int64{1},
			Steps:             benchSteps, Smax: benchSmax,
			PSA1TaskDur: 120, PSA2TaskDur: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].FillingPct <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

// benchFleetCluster is the cluster used by the scheduler benchmarks below.
const benchFleetCluster = view.ClusterID("c0")

// buildBenchFleet constructs the canonical scheduler-benchmark fleet: 50
// applications on one 4096-node cluster, each with a started
// pre-allocation, a running non-preemptible request, a pending NEXT update
// and a started preemptible request. The three scheduler benchmarks share
// it so the cached / one-dirty / from-scratch comparison in PERFORMANCE.md
// stays apples-to-apples. It returns the scheduler, the applications, a
// request-ID cursor for submitting more, and the standing request count.
func buildBenchFleet() (*core.Scheduler, []*core.AppState, *request.ID, int) {
	s := core.NewScheduler(map[view.ClusterID]int{benchFleetCluster: 4096})
	reqID := request.ID(1)
	mk := func(app *core.AppState, n int, dur float64, typ request.Type, how request.Relation, parent *request.Request) *request.Request {
		r := request.New(reqID, app.ID, benchFleetCluster, n, dur, typ, how, parent)
		reqID++
		app.SetFor(typ).Add(r)
		return r
	}
	apps := make([]*core.AppState, 50)
	totalReqs := 0
	for i := range apps {
		a := s.AddApp(i+1, float64(i))
		pa := mk(a, 16, 1e6, request.PreAlloc, request.Free, nil)
		pa.StartedAt = 0
		np := mk(a, 8, 1e5, request.NonPreempt, request.Coalloc, pa)
		np.StartedAt = 0
		mk(a, 12, 1e5, request.NonPreempt, request.Next, np)
		p := mk(a, 4, math.Inf(1), request.Preempt, request.Free, nil)
		p.StartedAt = 0
		apps[i] = a
		totalReqs += 4
	}
	return s, apps, &reqID, totalReqs
}

// runSchedulerThroughput drives repeated rounds over the standing fleet.
// Observability runs enabled-but-idle: a live registry records per round
// exactly what rms.Server.runLocked records (round duration, dirty-artifact
// count, one round event) — the allocs/op pin of the cached steady state
// (≤ 8, gated in CI) therefore proves recording stays off the allocation
// path.
func runSchedulerThroughput(b *testing.B, incremental bool) {
	s, _, _, totalReqs := buildBenchFleet()
	s.SetIncremental(incremental)
	reg := obs.NewRegistry()
	hRound := reg.Hist("rms.round_seconds")
	hDirty := reg.Hist("rms.round_dirty_artifacts")
	var prevRecomputed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		out := s.Schedule(float64(i))
		if len(out.NonPreemptViews) != 50 {
			b.Fatal("lost applications")
		}
		st := s.Stats()
		hRound.Record(time.Since(t0).Seconds())
		hDirty.Record(float64(st.ArtifactsRecomputed - prevRecomputed))
		prevRecomputed = st.ArtifactsRecomputed
		reg.Event(obs.Event{Time: float64(i), Type: obs.EvRound, Value: 0})
	}
	b.StopTimer()
	reqPerSec := float64(totalReqs) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(reqPerSec, "requests/s")
}

// BenchmarkSchedulerThroughput measures scheduling rounds over a live
// request mix, reporting requests scheduled per second — the §3.2 claim is
// ≈500 requests/second on one core of a 2009-era Core 2 Duo. With the
// standing fleet unchanged between rounds, this is the fully-cached steady
// state of the incremental scheduler.
func BenchmarkSchedulerThroughput(b *testing.B) { runSchedulerThroughput(b, true) }

// BenchmarkSchedulerThroughputFull is BenchmarkSchedulerThroughput with
// incremental recomputation disabled: every round recomputes the whole
// fleet from scratch. The pair separates "cost of a from-scratch round"
// (this benchmark, the pre-incremental baseline) from "cost of a round
// when nothing changed" (the cached steady state above).
func BenchmarkSchedulerThroughputFull(b *testing.B) { runSchedulerThroughput(b, false) }

// BenchmarkIncrementalReschedule measures the incremental hot path the way
// the RMS drives it: the same standing fleet, but each round one rotating
// application submits a short preemptible request, the next round starts
// it, the one after finishes and reaps it — so every round carries exactly
// one dirty application and the scheduler reuses everything else. This is
// the per-arrival round cost the federated throughput benchmarks pay on
// the shard owning the churn.
func BenchmarkIncrementalReschedule(b *testing.B) {
	s, apps, reqID, _ := buildBenchFleet()
	s.Schedule(0) // warm the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i + 1)
		a := apps[i%len(apps)]
		r := request.New(*reqID, a.ID, benchFleetCluster, 1, 0.4, request.Preempt, request.Free, nil)
		*reqID++
		a.P.Add(r)
		s.MarkAppDirty(a.ID)
		out := s.Schedule(now)
		if len(out.PreemptViews) != 50 {
			b.Fatal("lost applications")
		}
		r.StartedAt = now
		s.MarkAppDirty(a.ID)
		s.Schedule(now)
		r.Finished = true
		a.P.Remove(r)
		s.MarkAppDirty(a.ID)
		s.Schedule(now + 0.5)
	}
	b.StopTimer()
	// Rounds per second: three rounds per iteration.
	b.ReportMetric(3*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// inertApp discards all notifications.
type inertApp struct{}

func (inertApp) OnViews(_, _ view.View)    {}
func (inertApp) OnStart(request.ID, []int) {}
func (inertApp) OnKill(string)             {}

// BenchmarkFederatedThroughput measures client-facing request throughput of
// a federated RMS under localized churn on a steady fleet: 32 clusters ×
// 256 nodes carry 256 long-running applications (4 standing requests each —
// a pre-allocation, a running non-preemptible allocation, a pending NEXT
// update and a preemptible request), and one short preemptible request per
// virtual second arrives on a rotating cluster. Every arrival forces a
// re-scheduling round (§3.2): a single RMS re-schedules the whole fleet for
// each local change, while a federation re-runs only the shard owning the
// touched cluster — the scheduling work the other shards avoid is the
// aggregate-throughput gain of sharding, independent of core count. Shards
// advance deterministically on one shared virtual clock; the reported
// metric is churn requests fully processed (request → start → expiry
// sweep) per wall-clock second.
func BenchmarkFederatedThroughput(b *testing.B) {
	const (
		nClusters = 32
		nodesPer  = 256
		appsPerCl = 8
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := sim.NewEngine()
			clk := clock.SimClock{E: e}
			clusters := make(map[view.ClusterID]int, nClusters)
			cids := make([]view.ClusterID, nClusters)
			for i := range cids {
				cids[i] = view.ClusterID(fmt.Sprintf("c%d", i))
				clusters[cids[i]] = nodesPer
			}
			reg := obs.NewRegistry()
			fed := federation.New(federation.Config{
				Clusters:        clusters,
				Shards:          shards,
				ReschedInterval: 1,
				GracePeriod:     1e18, // standing apps never release; don't kill them
				Clock:           clk,
				Obs:             reg,
			})
			for i := 0; i < nClusters*appsPerCl; i++ {
				cid := cids[i%nClusters]
				sess := fed.Connect(inertApp{})
				// Staggered long durations give every cluster profile a
				// realistic breakpoint population and keep the standing load
				// live for the whole run.
				pa, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 16, Duration: 1e9 + float64(i)*1013, Type: request.PreAlloc})
				if err != nil {
					b.Fatal(err)
				}
				np, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 8, Duration: 1e8 + float64(i)*997, Type: request.NonPreempt,
					RelatedHow: request.Coalloc, RelatedTo: pa})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 12, Duration: 1e8 + float64(i)*991, Type: request.NonPreempt,
					RelatedHow: request.Next, RelatedTo: np}); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
					b.Fatal(err)
				}
			}
			// One churn session, connected up front; its requests rotate
			// across clusters and are routed shard by shard.
			churn := fed.Connect(inertApp{})
			// Settle the initial rounds.
			e.Run(e.Now() + 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Blocks of 8 arrivals per cluster keep the per-shard event
				// pattern (and so the §3.2 round coalescing) identical across
				// shard counts; only the per-round fleet size differs.
				if _, err := churn.Request(rms.RequestSpec{
					Cluster: cids[(i/8)%nClusters], N: 1, Duration: 0.4, Type: request.Preempt,
				}); err != nil {
					b.Fatal(err)
				}
				// Advance one re-scheduling interval: only shards with
				// triggered rounds or due expiries do any work.
				e.Run(e.Now() + 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
			reportWaitQuantiles(b, reg, shards)
		})
	}
}

// reportWaitQuantiles merges the per-shard admit→start wait histograms and
// reports the p50/p99 simulated-seconds waits alongside ns/op — the
// tail-latency companion of the throughput number, gated in CI by
// scripts/bench_gate.py. Waits are measured on the simulated clock, so the
// quantiles are deterministic per seed and benchmark shape.
func reportWaitQuantiles(b *testing.B, reg *obs.Registry, shards int) {
	wait := &obs.Histogram{}
	for i := 0; i < shards; i++ {
		wait.Merge(reg.Hist(fmt.Sprintf("shard%d.rms.wait_seconds", i)))
	}
	if wait.Stat().Count == 0 {
		return
	}
	b.ReportMetric(wait.Quantile(0.5), "p50-wait-s")
	b.ReportMetric(wait.Quantile(0.99), "p99-wait-s")
}

// BenchmarkMultiTenantThroughput runs the steady-fleet churn loop of
// BenchmarkFederatedThroughput (32 clusters × 256 nodes, 4 shards, 256
// standing applications, one churn arrival per virtual second) with the
// DRF queue hierarchy active on every shard: three tenant queues — t0
// guaranteed half of every cluster, t1/t2 best-effort — and the standing
// applications tagged round-robin. DRF is not order-stable, so every
// triggered round pays the policy cost (share tally + ordering + victim
// scan) on top of scheduling; the gap to BenchmarkFederatedThroughput's
// shards=4 case is the price of fairness, gated in CI by bench-diff like
// the other throughput benchmarks.
func BenchmarkMultiTenantThroughput(b *testing.B) {
	const (
		nClusters = 32
		nodesPer  = 256
		appsPerCl = 8
		shards    = 4
	)
	e := sim.NewEngine()
	clk := clock.SimClock{E: e}
	clusters := make(map[view.ClusterID]int, nClusters)
	cids := make([]view.ClusterID, nClusters)
	for i := range cids {
		cids[i] = view.ClusterID(fmt.Sprintf("c%d", i))
		clusters[cids[i]] = nodesPer
	}
	tree := tenants.NewTree()
	guarantee := tenants.Resources{}
	for cid := range clusters {
		guarantee[cid] = nodesPer / 2
	}
	tree.MustAdd("t0", guarantee, nil)
	tree.MustAdd("t1", nil, nil)
	tree.MustAdd("t2", nil, nil)
	reg := obs.NewRegistry()
	fed := federation.New(federation.Config{
		Clusters:        clusters,
		Shards:          shards,
		ReschedInterval: 1,
		GracePeriod:     1e18, // standing apps never release; don't kill them
		Clock:           clk,
		Obs:             reg,
		Scheduling: func(int) core.SchedulingPolicy {
			return tenants.NewDRF(tree)
		},
	})
	for i := 0; i < nClusters*appsPerCl; i++ {
		cid := cids[i%nClusters]
		sess := fed.Connect(inertApp{}, rms.WithTenant(fmt.Sprintf("t%d", i%3)))
		pa, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 16, Duration: 1e9 + float64(i)*1013, Type: request.PreAlloc})
		if err != nil {
			b.Fatal(err)
		}
		np, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 8, Duration: 1e8 + float64(i)*997, Type: request.NonPreempt,
			RelatedHow: request.Coalloc, RelatedTo: pa})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 12, Duration: 1e8 + float64(i)*991, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: np}); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
			b.Fatal(err)
		}
	}
	churn := fed.Connect(inertApp{}, rms.WithTenant("t1"))
	e.Run(e.Now() + 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := churn.Request(rms.RequestSpec{
			Cluster: cids[(i/8)%nClusters], N: 1, Duration: 0.4, Type: request.Preempt,
		}); err != nil {
			b.Fatal(err)
		}
		e.Run(e.Now() + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
	reportWaitQuantiles(b, reg, shards)
}

// BenchmarkFederatedThroughputSkewed measures the rebalancer's win under
// load skew: 32 clusters × 256 nodes over 4 shards, but every standing
// application and all churn live on the 8 clusters initially owned by shard
// 0 — so without rebalancing every churn arrival re-schedules the whole
// standing fleet, while the other three shards idle. With rebalancing on, a
// Rebalancer (4-second checks, default skew ratio) migrates hot clusters —
// standing requests, node-ID pools and views included — until the hot set
// is spread across shards and each arrival re-schedules only a quarter of
// the fleet. The identical warm-up phase (128 arrivals, enough checks for
// the migrations to settle) runs in both variants so the measured loop
// compares steady states.
func BenchmarkFederatedThroughputSkewed(b *testing.B) {
	const (
		nClusters = 32
		nodesPer  = 256
		shards    = 4
		appsPerCl = 8 // per hot cluster
	)
	for _, rebalance := range []bool{false, true} {
		name := "rebalance=off"
		if rebalance {
			name = "rebalance=on"
		}
		b.Run(name, func(b *testing.B) {
			e := sim.NewEngine()
			clk := clock.SimClock{E: e}
			clusters := make(map[view.ClusterID]int, nClusters)
			cids := make([]view.ClusterID, nClusters)
			for i := range cids {
				// Two-digit names sort in index order, so Partition gives
				// cluster i to shard i%shards: the hot set is i%shards == 0.
				cids[i] = view.ClusterID(fmt.Sprintf("c%02d", i))
				clusters[cids[i]] = nodesPer
			}
			hot := make([]view.ClusterID, 0, nClusters/shards)
			for i := 0; i < nClusters; i += shards {
				hot = append(hot, cids[i])
			}
			reg := obs.NewRegistry()
			fed := federation.New(federation.Config{
				Clusters:        clusters,
				Shards:          shards,
				ReschedInterval: 1,
				GracePeriod:     1e18, // standing apps never release; don't kill them
				Clock:           clk,
				Obs:             reg,
			})
			for i := 0; i < len(hot)*appsPerCl; i++ {
				cid := hot[i%len(hot)]
				sess := fed.Connect(inertApp{})
				pa, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 16, Duration: 1e9 + float64(i)*1013, Type: request.PreAlloc})
				if err != nil {
					b.Fatal(err)
				}
				np, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 8, Duration: 1e8 + float64(i)*997, Type: request.NonPreempt,
					RelatedHow: request.Coalloc, RelatedTo: pa})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 12, Duration: 1e8 + float64(i)*991, Type: request.NonPreempt,
					RelatedHow: request.Next, RelatedTo: np}); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt}); err != nil {
					b.Fatal(err)
				}
			}
			var rb *federation.Rebalancer
			if rebalance {
				rb = federation.NewRebalancer(fed, federation.RebalancerConfig{Interval: 4})
				rb.Start()
				defer rb.Stop()
			}
			churn := fed.Connect(inertApp{})
			arrive := func(i int) {
				if _, err := churn.Request(rms.RequestSpec{
					Cluster: hot[(i/8)%len(hot)], N: 1, Duration: 0.4, Type: request.Preempt,
				}); err != nil {
					b.Fatal(err)
				}
				e.Run(e.Now() + 1)
			}
			// Warm-up: settle initial rounds, then enough churn for the
			// rebalancer (when on) to spread the hot set.
			e.Run(e.Now() + 5)
			for i := 0; i < 128; i++ {
				arrive(i)
			}
			if rebalance && rb.Migrations() == 0 {
				b.Fatal("warm-up produced no migrations; the skewed scenario is mis-tuned")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arrive(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
			reportWaitQuantiles(b, reg, shards)
		})
	}
}

// BenchmarkCrossShardGang measures the two-phase reservation cycle: each
// iteration submits a parent leg on one shard and a NEXT/COALLOC child leg
// on the other, then steps simulated time until the gang commits and both
// legs run out. Reported alongside ns/op: end-to-end gang throughput, the
// hold→commit reservation latency quantiles (simulated seconds, from the
// coordinator's fed.gang_reserve_seconds histogram), and the commit ratio
// (1.0 — an uncontended federation must never abort).
func BenchmarkCrossShardGang(b *testing.B) {
	const shards = 2
	e := sim.NewEngine()
	clk := clock.SimClock{E: e}
	reg := obs.NewRegistry()
	fed := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{"c00": 128, "c01": 128},
		Shards:          shards,
		ReschedInterval: 1,
		GracePeriod:     1e18,
		Clock:           clk,
		Obs:             reg,
	})
	sess := fed.Connect(inertApp{})
	e.Run(5) // settle initial rounds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		how := request.Next
		if i%2 == 1 {
			how = request.Coalloc
		}
		parent, err := sess.Request(rms.RequestSpec{
			Cluster: "c00", N: 2, Duration: 2, Type: request.NonPreempt,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Request(rms.RequestSpec{
			Cluster: "c01", N: 2, Duration: 2, Type: request.NonPreempt,
			RelatedHow: how, RelatedTo: parent,
		}); err != nil {
			b.Fatal(err)
		}
		// Parent (2 s) + aligned child (2 s) + coordinator timers all fit
		// well inside one 8 s step.
		e.Run(e.Now() + 8)
	}
	b.StopTimer()
	gang := reg.Hist("fed.gang_reserve_seconds")
	committed := gang.Stat().Count
	if committed != uint64(b.N) {
		b.Fatalf("committed %d of %d gangs — uncontended runs must commit every reservation", committed, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gangs/s")
	b.ReportMetric(gang.Quantile(0.5), "p50-reserve-s")
	b.ReportMetric(gang.Quantile(0.99), "p99-reserve-s")
}

// BenchmarkFederatedThroughputParallel measures real-clock, truly parallel
// request throughput: shards run behind their own locks, and concurrent
// sessions hammer request()/done() cycles on per-goroutine clusters. With
// one shard every operation serializes on a single server lock; with N
// shards operations on different clusters proceed independently — the
// speed-up is the per-shard lock-independence win, which the deterministic
// simulated benchmark above cannot observe. Skipped under -short and on
// single-core runners (there is no parallelism to measure).
func BenchmarkFederatedThroughputParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("real-clock parallel benchmark; skipped under -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >1 core to exercise per-shard lock independence")
	}
	const (
		nClusters = 8
		nodesPer  = 64
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			clusters := make(map[view.ClusterID]int, nClusters)
			cids := make([]view.ClusterID, nClusters)
			for i := range cids {
				cids[i] = view.ClusterID(fmt.Sprintf("c%d", i))
				clusters[cids[i]] = nodesPer
			}
			fed := federation.New(federation.Config{
				Clusters:        clusters,
				Shards:          shards,
				ReschedInterval: 0.001,
				GracePeriod:     1e18,
				Clock:           clock.NewRealClock(),
			})
			var next int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One session per worker goroutine, pinned to one cluster so
				// its operations stay on one shard.
				cid := cids[int(atomic.AddInt64(&next, 1))%nClusters]
				sess := fed.Connect(inertApp{})
				for pb.Next() {
					id, err := sess.Request(rms.RequestSpec{
						Cluster: cid, N: 1, Duration: math.Inf(1), Type: request.Preempt,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if err := sess.Done(id, nil); err != nil {
						b.Error(err)
						return
					}
				}
				sess.Disconnect()
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}

// BenchmarkMigrationBackpressure measures the tail latency of racing
// request()/done() calls during sustained live-migration churn under
// clock.RealClock (the ROADMAP "migration under RealClock back-pressure"
// item): a background goroutine ping-pongs one cluster between two shards
// as fast as MigrateCluster allows while the measured session issues
// request/done pairs against that exact cluster. Every operation that
// lands mid-migration walks the bounded retry path
// (federation.migrateRetryBudget); p99 and max per-op latency are reported
// so a retry pile-up is visible as a tail, not hidden in the mean. Skipped
// under -short and on single-core runners (no concurrent migrator there).
func BenchmarkMigrationBackpressure(b *testing.B) {
	if testing.Short() {
		b.Skip("real-clock migration benchmark; skipped under -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >1 core for a concurrent migrator")
	}
	clusters := map[view.ClusterID]int{
		"c00": 16, "c01": 16, "c02": 16, "c03": 16,
	}
	fed := federation.New(federation.Config{
		Clusters:        clusters,
		Shards:          2,
		ReschedInterval: 0.001,
		GracePeriod:     1e18,
		Clock:           clock.NewRealClock(),
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	var migrations int64
	go func() {
		defer close(done)
		target := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fed.MigrateCluster("c00", target); err == nil {
				atomic.AddInt64(&migrations, 1)
				target = 1 - target
			}
		}
	}()
	sess := fed.Connect(inertApp{})
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		id, err := sess.Request(rms.RequestSpec{
			Cluster: "c00", N: 1, Duration: math.Inf(1), Type: request.Preempt,
		})
		if err != nil {
			b.Fatalf("request during migration churn: %v", err)
		}
		if err := sess.Done(id, nil); err != nil {
			b.Fatalf("done during migration churn: %v", err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	<-done
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	p99 := len(lat) * 99 / 100
	if p99 >= len(lat) {
		p99 = len(lat) - 1
	}
	b.ReportMetric(us(lat[p99]), "p99-us/op")
	b.ReportMetric(us(lat[len(lat)-1]), "max-us/op")
	b.ReportMetric(float64(atomic.LoadInt64(&migrations)), "migrations")
}

// BenchmarkChaosReplay runs the chaos scenario per iteration: a 60-job
// rigid trace over 3 shards with per-shard scavenging PSAs, under a seeded
// crash/restart plan with the requeue recovery policy. The no-faults
// variant runs the identical harness with an empty fault plan, isolating
// the chaos machinery's overhead (event-stream fingerprinting plus
// per-fault invariant checking) from the cost of the faults themselves.
func BenchmarkChaosReplay(b *testing.B) {
	jobs := workload.Synthetic(stats.NewRand(1), workload.SyntheticConfig{
		Jobs: 60, MaxNodes: 8, MeanInterArr: 45, MeanRuntime: 600,
		PowerOfTwoBias: 0.5,
	})
	for _, withFaults := range []bool{false, true} {
		name := "no-faults"
		if withFaults {
			name = "faults"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.ChaosReplayConfig{
					Jobs:          jobs,
					Shards:        3,
					NodesPerShard: 16,
					PSATaskDur:    120,
					Recovery:      federation.RequeueOnCrash,
				}
				if withFaults {
					cfg.Chaos = chaos.Config{
						Seed: 1, MTTF: 700, MeanRestartDelay: 90, Horizon: 2500,
					}
				}
				res, err := experiments.RunChaosReplay(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != len(jobs) {
					b.Fatalf("completed %d of %d jobs", res.Completed, len(jobs))
				}
			}
		})
	}
}

// BenchmarkEquivalentStatic measures the n_eq solver on a full-length
// profile (used by Figs. 3, 4 and 9–11 setup).
func BenchmarkEquivalentStatic(b *testing.B) {
	p := amr.DefaultParams
	pr := amr.GenerateProfile(stats.NewRand(1), amr.ProfileSteps, amr.DefaultSmax)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := p.EquivalentStatic(pr, 0.75)
		if n < 1 {
			b.Fatal("bad n_eq")
		}
	}
}

// BenchmarkFullScaleDynamicScenario runs one complete paper-scale
// simulation (1000 steps, 3.16 TiB, one PSA) per iteration.
func BenchmarkFullScaleDynamicScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: 1, Overcommit: 1, Mode: apps.NEADynamic,
			PSATaskDurations: []float64{600},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.AMRArea <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

// BenchmarkTransportThroughput measures synchronous request+done round
// trips over a real TCP connection, with the resilience machinery off
// (plain Dial: the pre-resilience wire) and on (heartbeats, idempotency
// tokens, reconnect bookkeeping). The two must stay within the bench-diff
// gate of each other: steady-state resilience overhead is bounded.
func BenchmarkTransportThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("real-clock TCP benchmark; skipped under -short")
	}
	run := func(b *testing.B, opts transport.Options) {
		r := rms.NewServer(rms.Config{
			Clusters:        map[view.ClusterID]int{"bench": 4096},
			ReschedInterval: 3600, // keep rounds out of the hot path
			Clock:           clock.NewRealClock(),
		})
		srv := transport.NewServer(r)
		srv.Logf = func(string, ...any) {}
		srv.Grace = 5 * time.Second
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()

		app := &benchTransportApp{}
		c, err := transport.DialOptions(addr, app, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, err := c.Request(rms.RequestSpec{
				Cluster: "bench", N: 1, Duration: 3600, Type: request.NonPreempt,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Done(id, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
	}
	b.Run("hb=off", func(b *testing.B) {
		run(b, transport.Options{})
	})
	b.Run("hb=on", func(b *testing.B) {
		run(b, transport.Options{
			Reconnect:         true,
			HeartbeatInterval: 50 * time.Millisecond,
			CallTimeout:       30 * time.Second,
			Seed:              1,
		})
	})
}

// benchTransportApp discards notifications as fast as they arrive.
type benchTransportApp struct{}

func (benchTransportApp) OnViews(np, p view.View)            {}
func (benchTransportApp) OnStart(id request.ID, nodes []int) {}
func (benchTransportApp) OnKill(reason string)               {}
