package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/tenants"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// The standing-fleet shape shared by wire_fleet, fleet_fifo and fleet_drf
// (the BenchmarkFederatedThroughput shape): every standing application
// holds a pre-allocation, a running non-preemptible request COALLOC'd to
// it, a pending NEXT update of that request and an infinite preemptible
// request. Churn requests ask for one node on a cluster that rotates in
// blocks of churnBlock operations.
const (
	fleetClusters = 32
	fleetNodesPer = 256
	fleetShards   = 4
	churnBlock    = 8
)

func fleetClusterIDs() ([]view.ClusterID, map[view.ClusterID]int) {
	cids := make([]view.ClusterID, fleetClusters)
	clusters := make(map[view.ClusterID]int, fleetClusters)
	for i := range cids {
		cids[i] = view.ClusterID(fmt.Sprintf("c%d", i))
		clusters[cids[i]] = fleetNodesPer
	}
	return cids, clusters
}

// fedBackend adapts a Federator to transport.Backend, as the transport's
// own unexported adapter does.
type fedBackend struct{ f *federation.Federator }

func (b fedBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session {
	return b.f.Connect(h, opts...)
}

// newFleetFederation builds the 4-shard federation of the fleet workloads
// and the backend sessions connect through (traced when tr is non-nil).
func newFleetFederation(clk clock.Clock, interval float64, drf bool, tr *tracer) (*federation.Federator, transport.Backend) {
	_, clusters := fleetClusterIDs()
	cfg := federation.Config{
		Clusters:        clusters,
		Shards:          fleetShards,
		ReschedInterval: interval,
		GracePeriod:     1e18, // standing applications never release; do not kill them
		Clock:           clk,
	}
	if drf {
		// t0 is guaranteed half of every cluster, t1 and t2 are best-effort.
		tree := tenants.NewTree()
		guarantee := tenants.Resources{}
		for cid := range clusters {
			guarantee[cid] = fleetNodesPer / 2
		}
		tree.MustAdd("t0", guarantee, nil)
		tree.MustAdd("t1", nil, nil)
		tree.MustAdd("t2", nil, nil)
		cfg.Scheduling = func(int) core.SchedulingPolicy { return wrapPolicy(tenants.NewDRF(tree), tr) }
	}
	fed := federation.New(cfg)
	var backend transport.Backend = fedBackend{fed}
	if tr != nil {
		backend = tracedBackend{inner: backend, tr: tr}
	}
	return fed, backend
}

// submitStanding sends standing application i's four requests through req.
// Sizes and durations are drawn from rng inside narrow ranges, so every seed
// gives a different fleet of the same shape.
func submitStanding(req func(rms.RequestSpec) (request.ID, error), rng *rand.Rand, i int, cid view.ClusterID) error {
	paN := 14 + rng.Intn(5)  // 14..18
	npN := 6 + rng.Intn(4)   // 6..9
	nextN := 9 + rng.Intn(4) // 9..12
	jitter := func() float64 { return float64(i)*1000 + 1000*rng.Float64() }
	pa, err := req(rms.RequestSpec{Cluster: cid, N: paN, Duration: 1e9 + jitter(), Type: request.PreAlloc})
	if err != nil {
		return err
	}
	np, err := req(rms.RequestSpec{Cluster: cid, N: npN, Duration: 1e8 + jitter(), Type: request.NonPreempt,
		RelatedHow: request.Coalloc, RelatedTo: pa})
	if err != nil {
		return err
	}
	if _, err := req(rms.RequestSpec{Cluster: cid, N: nextN, Duration: 1e8 + jitter(), Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: np}); err != nil {
		return err
	}
	_, err = req(rms.RequestSpec{Cluster: cid, N: 4, Duration: math.Inf(1), Type: request.Preempt})
	return err
}

// checkFederation runs the federation's and every shard's invariant checks.
func checkFederation(fed *federation.Federator) error {
	if err := fed.CheckInvariants(); err != nil {
		return err
	}
	for i := 0; i < fed.NumShards(); i++ {
		if err := fed.Shard(i).CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// inertApp discards every notification; killed records a kill.
type inertApp struct{ killed *int }

func (inertApp) OnViews(_, _ view.View)    {}
func (inertApp) OnStart(request.ID, []int) {}
func (a inertApp) OnKill(string)           { *a.killed++ }

// eventStream fingerprints the engine's event stream (FNV-1a over every
// fired event's time and name) and remembers when the current event began.
type eventStream struct {
	hash   uint64
	count  int64
	evWall time.Time
}

func newEventStream() *eventStream { return &eventStream{hash: 14695981039346656037} }

func (s *eventStream) observe(at float64, name string) {
	const prime = 1099511628211
	h := s.hash
	bits := math.Float64bits(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (bits & 0xff)) * prime
		bits >>= 8
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	s.hash = h
	s.count++
	s.evWall = time.Now()
}

// simFleet is the fixture of fleet_fifo and fleet_drf: a simulated-clock
// federation, standing applications with inert handlers, and one churn
// session driven closed-loop by run.
type simFleet struct {
	e      *sim.Engine
	fed    *federation.Federator
	tr     *tracer
	cids   []view.ClusterID
	churn  transport.Session
	stream *eventStream

	kills   int
	nextOp  int // operations issued so far, warm-up included
	offset  int // seed-chosen starting cluster
	pending request.ID
	starts  int
	lat     time.Duration
}

const simFleetApps = 256

// churnApp is the churn session's handler.
type churnApp struct{ f *simFleet }

func (churnApp) OnViews(_, _ view.View) {}
func (a churnApp) OnKill(string)        { a.f.kills++ }
func (a churnApp) OnStart(id request.ID, _ []int) {
	f := a.f
	if id != f.pending {
		return
	}
	f.starts++
	// From the start of the engine event that delivered it: the compute a
	// real daemon adds on top of the re-scheduling interval.
	f.lat = time.Since(f.stream.evWall)
}

func buildSimFleet(seed int64, drf bool, tr *tracer) (*simFleet, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &simFleet{e: sim.NewEngine(), tr: tr, stream: newEventStream()}
	f.e.SetObserver(func(at float64, name string) {
		f.stream.observe(at, name)
		tr.engineEvent(name)
	})
	var backend transport.Backend
	f.fed, backend = newFleetFederation(clock.SimClock{E: f.e}, 1, drf, tr)
	f.cids, _ = fleetClusterIDs()
	f.offset = rng.Intn(fleetClusters)
	connect := func(h rms.AppHandler, i int) transport.Session {
		if drf {
			return backend.Connect(h, rms.WithTenant(fmt.Sprintf("t%d", i%3)))
		}
		return backend.Connect(h)
	}
	for i := 0; i < simFleetApps; i++ {
		sess := connect(inertApp{&f.kills}, i)
		if err := submitStanding(sess.Request, rng, i, f.cids[i%fleetClusters]); err != nil {
			return nil, fmt.Errorf("standing app %d: %w", i, err)
		}
	}
	f.churn = connect(churnApp{f}, 1)
	f.e.Run(f.e.Now() + 5) // settle the initial rounds
	return f, nil
}

// run drives n operations; with a nil phase they are warm-up.
func (f *simFleet) run(n int, p *phase) error {
	for i := 0; i < n; i++ {
		op := f.nextOp
		f.nextOp++
		tok := f.tr.beginOp(op)
		f.starts = 0
		id, err := f.churn.Request(rms.RequestSpec{
			Cluster: f.cids[(f.offset+op/churnBlock)%fleetClusters],
			N:       1, Duration: 0.4, Type: request.Preempt,
		})
		f.pending = id
		if err == nil {
			// One re-scheduling interval: the round starts the request,
			// and its expiry is swept by the round after.
			f.e.Run(f.e.Now() + 1)
			f.tr.closeEvent()
		}
		f.tr.endOp(tok)
		switch {
		case p == nil:
		case err != nil || f.starts != 1:
			p.fail()
		default:
			p.op(f.lat)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if f.starts != 1 {
			return fmt.Errorf("op %d: request %d started %d times", op, id, f.starts)
		}
	}
	return nil
}

func (f *simFleet) check() error {
	if f.kills != 0 {
		return fmt.Errorf("%d sessions were killed", f.kills)
	}
	return checkFederation(f.fed)
}

func (f *simFleet) close() {}

func (f *simFleet) federator() *federation.Federator { return f.fed }
func (f *simFleet) events() *eventStream             { return f.stream }
func (f *simFleet) interval() float64                { return 1 }

func (f *simFleet) drain() error { return nil }
