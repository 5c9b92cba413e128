package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"coormv2/internal/chaos"
	"coormv2/internal/clock"
	"coormv2/internal/netchaos"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// netChaosConfig parametrizes the wire-resilience scenario: a sequential
// job stream driven over a real TCP connection through a netchaos proxy
// that severs, partitions, half-opens, and delays the wire on a seeded
// schedule. Unlike the simulator experiments this one runs on the wall
// clock — it measures the actual transport, not a model of it.
type netChaosConfig struct {
	// Seed drives the fault plan and the client's backoff jitter.
	Seed int64
	// Jobs is the number of sequential request→start→done cycles.
	Jobs int
	// Resume selects the recovery mode: true gives the server a grace
	// window and the client reconnect+resume; false is the kill-and-replay
	// baseline — a dropped connection kills the session and the driver
	// re-dials from scratch, resubmitting the interrupted job.
	Resume bool
	// Faults is the seeded wire-fault schedule (zero MeanBetween/Horizon
	// disables faults).
	Faults netchaos.Config
	// Grace is the server-side resume window in resume mode.
	Grace time.Duration
}

// netChaosResult is one scenario run's outcome.
type netChaosResult struct {
	Completed  int     // jobs that finished (must equal cfg.Jobs)
	Reconnects int     // transparent session resumes (resume mode)
	Resubmits  int     // sessions re-dialed from scratch (replay mode)
	DupStarts  int     // start notifications delivered twice (must be 0)
	LostAcks   int     // acked requests that never started (must be 0)
	RecoverP50 float64 // median recovery seconds (resume or re-dial)
	RecoverP99 float64
	Elapsed    float64 // wall seconds for the whole workload
	TraceHash  uint64  // fingerprint of the fault schedule (seed-stable)
	Snapshot   *obs.Snapshot
}

// netApp tracks starts with per-request counts so duplicates are visible.
type netApp struct {
	mu     sync.Mutex
	starts map[request.ID]int
	killed bool
}

func newNetApp() *netApp { return &netApp{starts: make(map[request.ID]int)} }

func (a *netApp) OnViews(np, p view.View) {}

func (a *netApp) OnStart(id request.ID, ids []int) {
	a.mu.Lock()
	a.starts[id]++
	a.mu.Unlock()
}

func (a *netApp) OnKill(reason string) {
	a.mu.Lock()
	a.killed = true
	a.mu.Unlock()
}

func (a *netApp) started(id request.ID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.starts[id] > 0
}

func (a *netApp) dupStarts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, c := range a.starts {
		if c > 1 {
			n++
		}
	}
	return n
}

// runNetChaos drives the scenario over real sockets and returns the
// measured outcome.
func runNetChaos(cfg netChaosConfig) (*netChaosResult, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 8
	}
	reg := obs.NewRegistry()
	r := rms.NewServer(rms.Config{
		Clusters:        map[view.ClusterID]int{"c0": 16},
		ReschedInterval: 0.01,
		Clock:           clock.NewRealClock(),
	})
	srv := transport.NewServer(r)
	srv.Logf = func(string, ...any) {}
	srv.Obs = reg
	if cfg.Resume {
		srv.Grace = cfg.Grace
		if srv.Grace <= 0 {
			srv.Grace = 10 * time.Second
		}
	}
	backendAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	defer srv.Close()

	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer p.Close()

	plan := netchaos.Plan(cfg.Faults)
	res := &netChaosResult{TraceHash: chaos.Hash(plan)}

	opts := transport.Options{
		Reconnect:         cfg.Resume,
		ReconnectWindow:   30 * time.Second,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		CallTimeout:       30 * time.Second,
		Seed:              cfg.Seed,
		Obs:               reg,
	}
	app := newNetApp()
	c, err := transport.Dial(addr, app, opts)
	if err != nil {
		return nil, err
	}
	defer func() { c.Close() }()

	p.Start(plan, 2*time.Millisecond)
	start := time.Now()
	var redial []float64 // replay-mode recovery times

	// redialClient tears the dead client down and dials a fresh session,
	// recording the recovery time — the kill-and-replay baseline.
	redialClient := func() error {
		t0 := time.Now()
		c.Close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			app = newNetApp()
			nc, err := transport.Dial(addr, app, opts)
			if err == nil {
				c = nc // only a live client replaces the closed one: the deferred Close needs one
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("netchaos: re-dial: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		redial = append(redial, time.Since(t0).Seconds())
		res.Resubmits++
		return nil
	}

	// The gap between jobs paces the workload so it spans the fault
	// schedule instead of finishing before the first fault fires.
	var gap time.Duration
	if cfg.Faults.Horizon > 0 {
		gap = time.Duration(cfg.Faults.Horizon / float64(cfg.Jobs) * float64(time.Second))
	}
	for job := 0; job < cfg.Jobs; job++ {
		for done := false; !done; {
			id, err := c.Request(rms.RequestSpec{
				Cluster: "c0", N: 1, Duration: 3600, Type: request.NonPreempt,
			})
			if err != nil {
				if cfg.Resume {
					return nil, fmt.Errorf("netchaos: job %d lost in resume mode: %w", job, err)
				}
				if err := redialClient(); err != nil {
					return nil, err
				}
				continue // resubmit the job on the fresh session
			}
			deadline := time.Now().Add(30 * time.Second)
			lost := false
			for !app.started(id) && !lost {
				if !cfg.Resume {
					select {
					case <-c.Dead():
						// The ack survived but the session didn't: without
						// resume, this acknowledged request is simply lost.
						lost = true
						continue
					default:
					}
				}
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("netchaos: job %d (req %d) never started", job, id)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if lost {
				res.LostAcks++
				if err := redialClient(); err != nil {
					return nil, err
				}
				continue
			}
			if err := c.Done(id, nil); err != nil {
				if cfg.Resume {
					return nil, fmt.Errorf("netchaos: done(%d): %w", id, err)
				}
				if err := redialClient(); err != nil {
					return nil, err
				}
				continue // the work ran; resubmission is the baseline's cost
			}
			res.Completed++
			done = true
		}
		time.Sleep(gap)
	}
	res.Elapsed = time.Since(start).Seconds()
	res.Reconnects = c.Reconnects()
	res.DupStarts = app.dupStarts()

	if cfg.Resume {
		h := reg.Hist("transport.reconnect_seconds")
		if h.Count() > 0 {
			res.RecoverP50 = h.Quantile(0.5)
			res.RecoverP99 = h.Quantile(0.99)
		}
	} else if len(redial) > 0 {
		sort.Float64s(redial)
		res.RecoverP50 = redial[len(redial)/2]
		res.RecoverP99 = redial[(len(redial)*99)/100]
	}
	snap := reg.Snapshot(res.Elapsed)
	res.Snapshot = &snap
	return res, nil
}
