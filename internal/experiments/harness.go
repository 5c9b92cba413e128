package experiments

import (
	"fmt"
	"math"

	"coormv2/internal/apps"
	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// simEnv is the one simulated environment every experiment runs in: the
// paper's §5 recipe of an RMS on a simulated clock with applications
// connected to it. RunScenario drives an AMR application through it, and
// replay drives a rigid-job trace through its PSA attach, rigid-job
// submission, run-to-completion and summary steps.
type simEnv struct {
	e   *sim.Engine
	clk clock.SimClock
	// names lists the clusters in index order; every cluster has nodes
	// machines. clusters is the same set in the form the RMS takes.
	names    []view.ClusterID
	nodes    int
	clusters map[view.ClusterID]int
	// rec is the client-side recorder handed to applications (PSA waste);
	// agg sums it with the per-shard recorders.
	rec     *metrics.Recorder
	agg     *metrics.Aggregate
	fed     *federation.Federator
	connect func(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session
	// remaining counts the applications whose completion gates the run. The
	// engine is stopped at the last completion so every metric is evaluated
	// over exactly the workload's makespan.
	remaining int
}

// envHook, when set, is called with every environment buildRMS creates and
// the federation configuration it was built from. Tests use it to swap the
// environment's connect for another server on the same clock and recorder.
var envHook func(*simEnv, federation.Config)

// buildRMS creates the environment: a Federator with that many shards (at
// least one) configured by fc (policy, recovery, scheduling, obs; the
// cluster set, clock, interval and recorders are filled in here). §5.1.3:
// the re-scheduling interval is "set to 1 second, to obtain a very reactive
// system".
func buildRMS(names []view.ClusterID, nodes, shards int, fc federation.Config) *simEnv {
	e := sim.NewEngine()
	env := &simEnv{
		e: e, clk: clock.SimClock{E: e},
		names: names, nodes: nodes, clusters: make(map[view.ClusterID]int, len(names)),
		rec: metrics.NewRecorder(),
	}
	for _, c := range names {
		env.clusters[c] = nodes
	}
	recs := []*metrics.Recorder{env.rec}
	fc.Clusters, fc.Shards, fc.ReschedInterval, fc.Clock = env.clusters, shards, 1, env.clk
	fc.Metrics = func(int) *metrics.Recorder {
		r := metrics.NewRecorder()
		recs = append(recs, r)
		return r
	}
	env.fed = federation.New(fc)
	env.connect = func(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session {
		return env.fed.Connect(h, opts...)
	}
	env.agg = metrics.NewAggregate(recs...)
	if envHook != nil {
		envHook(env, fc)
	}
	return env
}

// federatedCluster names cluster i of a federated environment; the
// two-digit form keeps the sorted order equal to the index order, so
// federation.Partition assigns cluster i to shard i % shards.
func federatedCluster(i int) view.ClusterID {
	return view.ClusterID(fmt.Sprintf("shard%02d", i))
}

func federatedClusters(n int) []view.ClusterID {
	names := make([]view.ClusterID, n)
	for i := range names {
		names[i] = federatedCluster(i)
	}
	return names
}

// attachPSA connects one scavenging PSA to cluster c and returns it with
// its application ID. hook, when set, customizes the PSA before it connects.
func (env *simEnv) attachPSA(c view.ClusterID, taskDur float64, hook func(*apps.PSA), opts ...rms.ConnectOption) (*apps.PSA, int) {
	p := apps.NewPSA(env.clk, apps.PSAConfig{Cluster: c, TaskDuration: taskDur, Metrics: env.rec})
	if hook != nil {
		hook(p)
	}
	sess := env.connect(p, opts...)
	p.SetMetricsID(sess.AppID())
	p.Attach(sess)
	return p, sess.AppID()
}

// expect registers n more applications whose completion gates the run;
// done reports one of them complete.
func (env *simEnv) expect(n int) { env.remaining += n }

func (env *simEnv) done() {
	env.remaining--
	if env.remaining == 0 {
		env.e.Stop()
	}
}

// maxReplayTime aborts a runaway trace replay, in simulated seconds.
const maxReplayTime = 1e9

// run advances the simulation in one-hour windows until every expected
// application is done, or maxSimTime is exceeded. check,
// when set, is consulted after each window and aborts the run with its
// error. An event-free window is just an idle gap
// while events are still queued (sparse traces have inter-arrival gaps over
// an hour); a deadlock is applications remaining with nothing queued at
// all. Engine.Run drains cancelled events even past the horizon, so
// Pending()==0 is exact.
func (env *simEnv) run(what string, maxSimTime float64, check func() error) error {
	e := env.e
	for env.remaining > 0 {
		before := e.Processed()
		e.Run(e.Now() + 3600)
		if env.remaining == 0 {
			break
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		if e.Now() > maxSimTime {
			return fmt.Errorf("experiments: %s exceeded %g s (remaining=%d)", what, maxSimTime, env.remaining)
		}
		if e.Processed() == before && e.Pending() == 0 {
			return fmt.Errorf("experiments: %s stalled at t=%g (remaining=%d)", what, e.Now(), env.remaining)
		}
	}
	return nil
}

// settlingRigid wraps a rigid job so that it settles exactly once —
// completed, killed, or rejected — no matter how many end timers or
// notifications the crash/replay machinery produces.
type settlingRigid struct {
	*apps.Rigid
	settled bool
	settle  func(outcome string)
}

func (w *settlingRigid) settleOnce(outcome string) {
	if w.settled {
		return
	}
	w.settled = true
	w.settle(outcome)
}

func (w *settlingRigid) OnKill(reason string) {
	w.Rigid.OnKill(reason)
	w.settleOnce("killed")
}

// OnRequestFinished settles the job as completed on the server-authoritative
// finish event (forwarded through the federation under the federated ID).
// Unlike the application's own end timer, it is delivered exactly when the
// allocation actually finished — including after a crash-requeued re-run,
// whose first-run timer would otherwise settle the job while the re-run is
// still queued or executing. Only the job's *current* request counts: a
// cooperative node-failure recovery finishes the superseded request while
// the resubmitted remainder is still pending, and that finish is a
// checkpoint hand-over, not a completion.
func (w *settlingRigid) OnRequestFinished(id request.ID) {
	if id != w.RequestID() {
		return
	}
	w.settleOnce("completed")
}

// OnRequestsReaped settles a job whose current request was dropped: a reap
// without a preceding finish means the work never completed (killed by a
// node failure, replay rejected, or the queue entry withdrawn), so the job
// counts as killed. Reaps of superseded requests (a cooperative recovery's
// released predecessor) and reaps after a normal finish are no-ops.
func (w *settlingRigid) OnRequestsReaped(ids []request.ID) {
	for _, id := range ids {
		if id == w.RequestID() {
			w.settleOnce("killed")
			return
		}
	}
}

// jobFate is how one rigid job ended; outcome stays empty until it settles.
type jobFate struct {
	outcome   string  // "completed", "killed" or "rejected"
	wait      float64 // submit → (last) start, completed jobs only
	lostWork  float64
	resubmits int
}

// rigidRun is the per-job and per-cluster record of one submitted trace.
type rigidRun struct {
	fates []jobFate
	// area is the rigid node·s of the trace after clamping node counts to
	// the cluster size; clusterArea splits it by cluster index.
	area        float64
	clusterArea []float64
}

// submitRigid schedules every job of cfg's trace for submission at its
// submit time, each as a rigid application on a session of its own, and
// expects their completion. A refused submission (its shard is down under
// KillOnCrash) settles the job as rejected.
func (env *simEnv) submitRigid(cfg replayConfig) *rigidRun {
	run := &rigidRun{fates: make([]jobFate, len(cfg.Jobs)), clusterArea: make([]float64, len(env.names))}
	env.expect(len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		// Jobs cycle over the clusters, but for a deterministic skew: the
		// configured fraction of the trace cycles over shard 0's initial
		// clusters (indices ≡ 0 mod Shards).
		cluster := i % len(env.names)
		if cfg.HotJobFraction > 0 && float64(i%100) < cfg.HotJobFraction*100 {
			cluster = (i % cfg.ClustersPerShard) * max(cfg.Shards, 1)
		}
		var opts []rms.ConnectOption
		if cfg.TenantOf != nil {
			opts = append(opts, rms.WithTenant(cfg.TenantOf(i)))
		}
		n := min(j.Nodes, env.nodes)
		run.area += float64(n) * j.Runtime
		run.clusterArea[cluster] += float64(n) * j.Runtime
		// The event name is part of the fingerprinted event stream.
		env.e.At(j.Submit, "chaos.submit", func() {
			r := apps.NewRigid(env.clk, env.names[cluster], n, j.Runtime)
			w := &settlingRigid{Rigid: r}
			w.settle = func(outcome string) {
				run.fates[i] = jobFate{outcome, math.Max(0, r.StartTime-j.Submit), r.LostWork, r.Resubmits}
				env.done()
			}
			var h rms.AppHandler = w
			if cfg.EndTimerSettles {
				h = r
				r.OnEnd = func() { w.settleOnce("completed") }
			}
			sess := env.connect(h, opts...)
			r.Attach(sess)
			if err := r.Submit(); err != nil {
				sess.Disconnect()
				w.settleOnce("rejected")
				return
			}
			if cfg.GangFraction > 0 && len(env.names) > 1 && float64(i%100) < cfg.GangFraction*100 {
				env.gangCompanion(i, cluster, r, sess)
			}
		})
	}
	return run
}

// gangCompanion gives job i, just accepted on cluster index cluster, a
// related request on the next cluster — under the round-robin partition, the
// next shard. The rigid job filters foreign IDs, so the companion rides the
// same session; it self-finishes when its ¬P duration runs out. A refused
// companion (its shard down under KillOnCrash) leaves the job itself intact.
func (env *simEnv) gangCompanion(i, cluster int, r *apps.Rigid, sess transport.Session) {
	how := request.Next
	if i%2 == 1 {
		how = request.Coalloc
	}
	_, _ = sess.Request(rms.RequestSpec{
		Cluster:    env.names[(cluster+1)%len(env.names)],
		N:          r.N,
		Duration:   r.Duration,
		Type:       request.NonPreempt,
		RelatedHow: how,
		RelatedTo:  r.RequestID(),
	})
}

// rigidStats is the wait/outcome summary of a finished replay.
type rigidStats struct {
	completed, killed, rejected int
	meanWait, maxWait           float64 // completed jobs only
	lostWork                    float64
	resubmits                   int
}

func (run *rigidRun) stats() rigidStats {
	var s rigidStats
	var waitSum float64
	for _, f := range run.fates {
		switch f.outcome {
		case "completed":
			s.completed++
			waitSum += f.wait
			s.maxWait = math.Max(s.maxWait, f.wait)
		case "killed":
			s.killed++
		case "rejected":
			s.rejected++
		}
		s.lostWork += f.lostWork
		s.resubmits += f.resubmits
	}
	if s.completed > 0 {
		s.meanWait = waitSum / float64(s.completed)
	}
	return s
}

// fingerprintEvents installs an observer that folds the full simulator
// event stream (time bits + event name, in firing order) into an FNV-1a
// hash: two runs are byte-identical iff their hashes match. Hand-rolled
// rather than hash/fnv: Write would need a []byte(name) conversion — one
// allocation per fired event, on a stream of ~10^6 events per run — where
// this loop allocates nothing.
func fingerprintEvents(e *sim.Engine) *uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hash := new(uint64)
	*hash = fnvOffset
	e.SetObserver(func(at float64, name string) {
		h := *hash
		bits := math.Float64bits(at)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(bits >> (8 * i)))
			h *= fnvPrime
		}
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= fnvPrime
		}
		*hash = h
	})
	return hash
}
