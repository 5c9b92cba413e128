package main

import (
	"fmt"
	"math/rand"
	"time"

	"coormv2/internal/apps"
	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/transport"
	"coormv2/internal/view"
	"coormv2/internal/workload"
)

// The trace_replay mix (§5 of the paper): rigid jobs shaped by
// workload.Synthetic over 4 shards × 32 nodes, one scavenging PSA per
// cluster and one fully-predictably evolving application.
//
// The jobs are submitted by a closed population of users, each of which
// submits its next job a think time after its previous one ended. Replaying
// Synthetic's own open-loop arrival times at ≈0.95 offered load made queue
// depth — and with it every per-start cost — a heavy-tailed function of the
// seed (25–35 % between seeds at 7 500 jobs); a closed population keeps the
// clusters saturated behind a pending queue of steady depth.
const (
	replayShards     = 4
	replayNodesPer   = 32
	replayMaxNodes   = 16
	replayRuntime    = 1800.0
	replayUsers      = 64   // 16 per cluster: ≈ 5 running, ≈ 11 pending
	replayThink      = 60.0 // mean think time, s
	replayPSATask    = 300.0
	replayEvolveSegs = 60
	replayMaxSimTime = 1e9
	replaySlack      = 16 // jobs beyond warm-up + timed ops
)

func replayCluster(i int) view.ClusterID { return view.ClusterID(fmt.Sprintf("shard%02d", i)) }

// replayOutputs are the replay's deterministic results: equal seeds must
// give equal values, traced or not.
type replayOutputs struct {
	Completed    int     `json:"completed_jobs"`
	MeanWaitS    float64 `json:"mean_wait_s"`
	UsedFraction float64 `json:"used_fraction"`
}

// traceReplay is the trace_replay fixture. Its operations are rigid-job
// starts; the engine, not a driver loop, decides when they happen.
type traceReplay struct {
	e      *sim.Engine
	fed    *federation.Federator
	tr     *tracer
	stream *eventStream
	agg    *metrics.Aggregate
	jobs   []workload.Job // shapes only: submit times come from the users
	submit func(user int)

	nextJob  int
	submitAt []float64

	rigids    []*apps.Rigid
	starts    []int // per job
	remaining int   // jobs not yet ended
	kills     int
	submitErr error

	phase    *phase
	record   int // starts still to record in phase
	nStarted int
	stopAt   int    // stop the engine once this many jobs have started (−1: never)
	midpoint func() // traced runs: called once, when half the jobs have started
}

// rigidWatch observes a rigid job's start on its way to the application.
type rigidWatch struct {
	*apps.Rigid
	r   *traceReplay
	job int
}

func (w *rigidWatch) OnStart(id request.ID, nodeIDs []int) {
	r := w.r
	lat := time.Since(r.stream.evWall)
	w.Rigid.OnStart(id, nodeIDs)
	r.starts[w.job]++
	r.nStarted++
	if r.record > 0 {
		r.record--
		r.phase.op(lat)
	}
	if r.stopAt >= 0 && r.nStarted >= r.stopAt {
		r.e.Stop()
	}
}

func (w *rigidWatch) OnKill(reason string) {
	w.r.kills++
	w.Rigid.OnKill(reason)
}

func buildTraceReplay(seed int64, nJobs int, tr *tracer) (*traceReplay, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &traceReplay{e: sim.NewEngine(), tr: tr, stream: newEventStream()}
	r.jobs = workload.Synthetic(rng, workload.SyntheticConfig{
		Jobs: nJobs, MaxNodes: replayMaxNodes, MeanRuntime: replayRuntime, PowerOfTwoBias: 0.5,
	})
	r.e.SetObserver(func(at float64, name string) {
		r.stream.observe(at, name)
		tr.engineEvent(name)
	})
	clk := clock.SimClock{E: r.e}
	clusters := make(map[view.ClusterID]int, replayShards)
	for i := 0; i < replayShards; i++ {
		clusters[replayCluster(i)] = replayNodesPer
	}
	clientRec := metrics.NewRecorder()
	recs := []*metrics.Recorder{clientRec}
	r.fed = federation.New(federation.Config{
		Clusters: clusters, Shards: replayShards, ReschedInterval: 1, Clock: clk,
		Metrics: func(int) *metrics.Recorder {
			rec := metrics.NewRecorder()
			recs = append(recs, rec)
			return rec
		},
	})
	r.agg = metrics.NewAggregate(recs...)
	var backend transport.Backend = fedBackend{r.fed}
	if tr != nil {
		backend = tracedBackend{inner: backend, tr: tr}
	}

	for i := 0; i < replayShards; i++ {
		p := apps.NewPSA(clk, apps.PSAConfig{Cluster: replayCluster(i), TaskDuration: replayPSATask, Metrics: clientRec})
		sess := backend.Connect(p)
		p.SetMetricsID(sess.AppID())
		p.Attach(sess)
	}

	// The evolving application cycles 8 → 16 → 4 nodes over roughly the
	// time the saturated clusters need for the jobs' total area.
	span := workload.Summarize(r.jobs).TotalArea / (0.9 * replayShards * replayNodesPer)
	segs := make([]apps.Segment, replayEvolveSegs)
	for i := range segs {
		segs[i] = apps.Segment{N: []int{8, 16, 4}[i%3], Duration: span / replayEvolveSegs}
	}
	ev := apps.NewPredictableEvolving(clk, replayCluster(0), segs)
	ev.Attach(backend.Connect(ev))
	if err := ev.Submit(); err != nil {
		return nil, fmt.Errorf("evolving app: %w", err)
	}

	r.rigids = make([]*apps.Rigid, len(r.jobs))
	r.starts = make([]int, len(r.jobs))
	r.submitAt = make([]float64, len(r.jobs))
	r.remaining = len(r.jobs)
	think := func() float64 { return replayThink * rng.ExpFloat64() }
	r.submit = func(user int) {
		if r.nextJob == len(r.jobs) {
			return
		}
		i := r.nextJob
		r.nextJob++
		j := r.jobs[i]
		r.submitAt[i] = r.e.Now()
		rigid := apps.NewRigid(clk, replayCluster(user%replayShards), j.Nodes, j.Runtime)
		sess := backend.Connect(&rigidWatch{Rigid: rigid, r: r, job: i})
		rigid.Attach(sess)
		rigid.OnEnd = func() {
			sess.Disconnect() // a session per job, torn down at its end
			// Let go of the session (and the views it caches): the finished
			// job stays in r.rigids for the end-of-run checks.
			rigid.Attach(nil)
			rigid.OnEnd = nil
			r.remaining--
			if r.remaining == 0 {
				r.e.Stop()
			}
			r.e.After(think(), "replay.submit", func() { r.submit(user) })
		}
		r.rigids[i] = rigid
		if err := rigid.Submit(); err != nil && r.submitErr == nil {
			r.submitErr = fmt.Errorf("job %d: %w", j.ID, err)
		}
	}
	for u := 0; u < replayUsers; u++ {
		u := u
		r.e.After(think(), "replay.submit", func() { r.submit(u) })
	}
	return r, nil
}

// advance runs the engine until cond holds, failing on a stall.
func (r *traceReplay) advance(cond func() bool) error {
	for !cond() {
		r.e.Run(r.e.Now() + 3600)
		r.tr.closeEvent()
		if r.submitErr != nil {
			return r.submitErr
		}
		// The PSAs may keep the event queue alive for ever, so a stall can
		// also show as simulated time running away.
		if !cond() && (r.e.Pending() == 0 || r.e.Now() > replayMaxSimTime) {
			return fmt.Errorf("replay stalled at t=%g with %d jobs unfinished", r.e.Now(), r.remaining)
		}
	}
	return nil
}

// run replays until n more jobs have started; with a nil phase they are
// warm-up. The engine stops between events and one round can start several
// jobs, so a pass may overshoot by a few starts; they are not recorded, and
// replaySlack extra jobs make sure the timed pass never runs short.
func (r *traceReplay) run(n int, p *phase) error {
	r.phase = p
	if p != nil {
		r.record = n
	}
	r.stopAt = r.nStarted + n
	if r.midpoint != nil {
		// The only pause inside the timed phase: the layer replays run on
		// the schedulers while their queues are deep.
		half := r.nStarted + n/2
		r.stopAt = half
		if err := r.advance(func() bool { return r.nStarted >= half }); err != nil {
			return err
		}
		r.midpoint()
		r.midpoint = nil
		r.stopAt = half + (n - n/2)
	}
	target := r.stopAt
	return r.advance(func() bool { return r.nStarted >= target })
}

// drain replays the rest of the trace to completion.
func (r *traceReplay) drain() error {
	r.stopAt = -1
	return r.advance(func() bool { return r.remaining == 0 })
}

func (r *traceReplay) check() error {
	if r.kills != 0 {
		return fmt.Errorf("%d sessions were killed", r.kills)
	}
	for i, n := range r.starts {
		if n != 1 {
			return fmt.Errorf("job %d started %d times", r.jobs[i].ID, n)
		}
		if !r.rigids[i].Ended {
			return fmt.Errorf("job %d never ended", r.jobs[i].ID)
		}
	}
	return checkFederation(r.fed)
}

func (r *traceReplay) outputs() replayOutputs {
	var wait float64
	for i, rg := range r.rigids {
		if w := rg.StartTime - r.submitAt[i]; w > 0 {
			wait += w
		}
	}
	makespan := r.e.Now()
	return replayOutputs{
		Completed:    len(r.jobs) - r.remaining,
		MeanWaitS:    wait / float64(len(r.jobs)),
		UsedFraction: r.agg.UsedFraction(replayShards*replayNodesPer, makespan),
	}
}

func (r *traceReplay) close()                           {}
func (r *traceReplay) federator() *federation.Federator { return r.fed }
func (r *traceReplay) events() *eventStream             { return r.stream }
func (r *traceReplay) interval() float64                { return 1 }
