// Package coormv2 is a Go implementation of CooRMv2, the Resource
// Management System for non-predictably evolving applications described in
// C. Klein and C. Pérez, "An RMS for Non-predictably Evolving
// Applications", INRIA RR-7644 / IEEE CLUSTER 2011.
//
// CooRMv2 lets an application reserve its peak expected resource usage with
// a pre-allocation while allocating only what it currently needs;
// pre-allocated-but-unused nodes are lent to malleable applications through
// preemptible requests and reclaimed — instantly (spontaneous updates) or
// with advance notice (announced updates).
//
// This package is a thin facade over the implementation packages:
//
//   - internal/core       — the scheduling algorithms (Algorithms 1–4)
//   - internal/rms        — one scheduler shard (sessions, node IDs, timers)
//   - internal/federation — the RMS: the cluster set over one or more shards
//   - internal/transport  — TCP daemon + client (JSON protocol)
//   - internal/sim        — discrete-event engine
//   - internal/amr        — the AMR application model of §2
//   - internal/apps       — application behaviours of §4
//   - internal/experiments — reproduction of every evaluation figure
//
// # Quick start
//
//	sim := coormv2.NewSimulation(map[coormv2.ClusterID]int{"c0": 64})
//	app := myHandler{}                   // implements coormv2.AppHandler
//	sess := sim.Server.Connect(app)
//	sess.Request(coormv2.RequestSpec{Cluster: "c0", N: 8, Duration: 3600,
//	    Type: coormv2.NonPreempt})
//	sim.Engine.RunAll()
//
// See examples/ for complete programs, README.md for the package layout and
// PERFORMANCE.md for measured results (the benchmark itself is bench/).
package coormv2

import (
	"coormv2/internal/amr"
	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// Core resource-model types.
type (
	// ClusterID names a cluster in the resource model.
	ClusterID = view.ClusterID
	// View is an availability map pushed to applications (§3.1.4).
	View = view.View
	// RequestID identifies a request within an RMS instance.
	RequestID = request.ID
	// RequestType is PA / non-preemptible / preemptible (§3.1.1).
	RequestType = request.Type
	// Relation is the FREE / COALLOC / NEXT constraint (§3.1.2).
	Relation = request.Relation
	// RequestSpec is the application-provided part of a request.
	RequestSpec = rms.RequestSpec
	// PreemptPolicy divides preemptible resources (§3.2, §5.4).
	PreemptPolicy = core.PreemptPolicy
)

// Request types (§3.1.1).
const (
	PreAlloc   = request.PreAlloc
	NonPreempt = request.NonPreempt
	Preempt    = request.Preempt
)

// Request constraints (§3.1.2).
const (
	Free    = request.Free
	Coalloc = request.Coalloc
	Next    = request.Next
)

// Preemptible division policies.
const (
	EquiPartitionFilling = core.EquiPartitionFilling
	StrictEquiPartition  = core.StrictEquiPartition
)

// Server-side types.
type (
	// Server is a CooRMv2 RMS instance: a federation of scheduler shards,
	// one by default (the single RMS).
	Server = federation.Federator
	// ServerConfig parametrizes a Server.
	ServerConfig = federation.Config
	// Session is one application's connection.
	Session = federation.Session
	// AppHandler receives RMS→application notifications.
	AppHandler = rms.AppHandler
	// Recorder accumulates evaluation metrics.
	Recorder = metrics.Recorder
	// Clock abstracts simulated versus wall-clock time.
	Clock = clock.Clock
)

// NewServer creates an RMS server (see federation.Config for the knobs).
func NewServer(cfg ServerConfig) *Server { return federation.New(cfg) }

// NewRecorder creates a metrics recorder.
func NewRecorder() *Recorder { return metrics.NewRecorder() }

// NewRealClock returns a wall clock for running the RMS as a daemon.
func NewRealClock() Clock { return clock.NewRealClock() }

// AMR model re-exports (§2).
type SpeedupParams = amr.SpeedupParams

// DefaultAMRParams are the paper's fitted speed-up coefficients (§2.2).
var DefaultAMRParams = amr.DefaultParams

// Transport re-exports: the TCP daemon and client of the wire protocol.
type (
	// Daemon serves an RMS over TCP.
	Daemon = transport.Server
	// Client is the application-side TCP endpoint.
	Client = transport.Client
	// ClientHandler receives notifications on the client side.
	ClientHandler = transport.Handler
)

// NewDaemon wraps an RMS server for TCP serving.
func NewDaemon(s *Server) *Daemon { return transport.NewServer(s) }

// Dial connects to a CooRMv2 daemon.
func Dial(addr string, h ClientHandler) (*Client, error) { return transport.Dial(addr, h) }

// Simulation bundles a discrete-event engine, an RMS server driven by its
// virtual clock, and a metrics recorder — the setup used throughout the
// paper's evaluation.
type Simulation struct {
	Engine  *sim.Engine
	Server  *Server
	Metrics *Recorder
}

// SimOption customizes NewSimulation.
type SimOption func(*ServerConfig)

// WithPolicy selects the preemptible division policy.
func WithPolicy(p PreemptPolicy) SimOption {
	return func(c *ServerConfig) { c.Policy = p }
}

// WithReschedInterval sets the §3.2 re-scheduling interval (default 1 s).
func WithReschedInterval(d float64) SimOption {
	return func(c *ServerConfig) { c.ReschedInterval = d }
}

// WithClip limits every application's non-preemptive view (§3.2).
func WithClip(v View) SimOption {
	return func(c *ServerConfig) { c.Clip = v }
}

// NewSimulation creates a simulated CooRMv2 deployment with the given
// clusters (cluster ID → node count).
func NewSimulation(clusters map[ClusterID]int, opts ...SimOption) *Simulation {
	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	cfg := ServerConfig{
		Clusters:        clusters,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Metrics:         func(int) *Recorder { return rec },
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Simulation{Engine: e, Server: federation.New(cfg), Metrics: rec}
}

// Clock returns the simulation's clock, for wiring application drivers.
func (s *Simulation) Clock() Clock { return clock.SimClock{E: s.Engine} }

// Run advances the simulation until the given virtual time.
func (s *Simulation) Run(until float64) { s.Engine.Run(until) }

// RunAll drains the event queue.
func (s *Simulation) RunAll() { s.Engine.RunAll() }

// Now returns the current virtual time.
func (s *Simulation) Now() float64 { return s.Engine.Now() }
