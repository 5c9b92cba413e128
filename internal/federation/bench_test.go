package federation

// The three federation behaviours the repo's benchmark (bench/, see
// BENCHMARK.json) has no workload for. They report through plain
// `go test -bench`; nothing gates on them.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// inertApp discards all notifications.
type inertApp struct{}

func (inertApp) OnViews(_, _ view.View)    {}
func (inertApp) OnStart(request.ID, []int) {}
func (inertApp) OnKill(string)             {}

// BenchmarkFederatedThroughputSkewed measures the rebalancer's win under
// load skew: 32 clusters × 256 nodes over 4 shards, but every standing
// application (4 standing requests each — a pre-allocation, a running
// non-preemptible allocation, a pending NEXT update and a preemptible
// request) and all churn live on the 8 clusters initially owned by shard 0 —
// so without rebalancing every churn arrival re-schedules the whole standing
// fleet, while the other three shards idle. With rebalancing on, a
// Rebalancer (4-second checks, default skew ratio) migrates hot clusters —
// standing requests, node-ID pools and views included — until the hot set
// is spread across shards and each arrival re-schedules only a quarter of
// the fleet. The identical warm-up phase (128 arrivals, enough checks for
// the migrations to settle) runs in both variants so the measured loop
// compares steady states. Reported alongside ns/op: churn requests fully
// processed per wall-clock second.
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
			fed := New(Config{
				Clusters:        clusters,
				Shards:          shards,
				ReschedInterval: 1,
				GracePeriod:     1e18, // standing apps never release; don't kill them
				Clock:           clock.SimClock{E: e},
				Obs:             reg,
			})
			for i := 0; i < len(hot)*appsPerCl; i++ {
				cid := hot[i%len(hot)]
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
			var rb *Rebalancer
			if rebalance {
				rb = NewRebalancer(fed, RebalancerConfig{Interval: 4})
				rb.Start()
				defer rb.Stop()
			}
			churn := fed.Connect(inertApp{})
			arrive := func(i int) {
				// Blocks of 8 arrivals per cluster keep the §3.2 round
				// coalescing identical in both variants.
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
		})
	}
}

// BenchmarkCrossShardGang measures the two-phase reservation cycle: each
// iteration submits a parent leg on one shard and a NEXT/COALLOC child leg
// on the other, then steps simulated time until the gang commits and both
// legs run out. Reported alongside ns/op: end-to-end gang throughput and the
// hold→commit reservation latency quantiles (simulated seconds, from the
// coordinator's fed.gang_reserve_seconds histogram). An uncontended
// federation must commit every reservation.
func BenchmarkCrossShardGang(b *testing.B) {
	e := sim.NewEngine()
	reg := obs.NewRegistry()
	fed := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 128, "c01": 128},
		Shards:          2,
		ReschedInterval: 1,
		GracePeriod:     1e18,
		Clock:           clock.SimClock{E: e},
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
	if st := fed.Stats(); st["gang_committed"] != int64(b.N) || st["gang_aborted"] != 0 {
		b.Fatalf("committed %d and aborted %d of %d gangs — uncontended runs must commit every reservation",
			st["gang_committed"], st["gang_aborted"], b.N)
	}
	gang := reg.Hist("fed.gang_reserve_seconds")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gangs/s")
	b.ReportMetric(gang.Quantile(0.5), "p50-reserve-s")
	b.ReportMetric(gang.Quantile(0.99), "p99-reserve-s")
}

// BenchmarkMigrationBackpressure measures the tail latency of racing
// request()/done() calls during sustained live-migration churn under
// clock.RealClock: a background goroutine ping-pongs one cluster between two
// shards as fast as MigrateCluster allows while the measured session issues
// request/done pairs against that exact cluster. Every operation that lands
// mid-migration walks the bounded retry path (migrateRetryBudget); p99 and
// max per-op latency are reported so a retry pile-up is visible as a tail,
// not hidden in the mean. Skipped under -short and on single-core runners
// (no concurrent migrator there).
func BenchmarkMigrationBackpressure(b *testing.B) {
	if testing.Short() {
		b.Skip("real-clock migration benchmark; skipped under -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >1 core for a concurrent migrator")
	}
	fed := New(Config{
		Clusters:        map[view.ClusterID]int{"c00": 16, "c01": 16, "c02": 16, "c03": 16},
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
	b.ReportMetric(us(lat[min(len(lat)*99/100, len(lat)-1)]), "p99-us/op")
	b.ReportMetric(us(lat[len(lat)-1]), "max-us/op")
	b.ReportMetric(float64(atomic.LoadInt64(&migrations)), "migrations")
}
