package apps

import (
	"math"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// Moldable is the moldable application of §4: it "waits for the RMS to send
// a non-preemptive view, then runs a resource selection algorithm, which
// chooses a non-preemptible request. Should the state of the system change
// before the application starts, ... it re-runs its selection algorithm and
// updates its request", as in CooRM.
type Moldable struct {
	base

	Cluster view.ClusterID
	// MaxNodes bounds the selection search.
	MaxNodes int
	// DurationFor returns the execution time on n nodes (the moldable
	// application's own performance model).
	DurationFor func(n int) float64

	reqID    request.ID
	haveReq  bool
	ChosenN  int
	Started  bool
	StartIDs []int
	// EstEnd is the end-time estimate of the last selection.
	EstEnd float64

	lastNP *stepfunc.StepFunc // Cluster's last non-preemptive profile
}

// NewMoldable creates a moldable application.
func NewMoldable(clk clock.Clock, cid view.ClusterID, maxNodes int, durationFor func(int) float64) *Moldable {
	return &Moldable{base: base{clk: clk}, Cluster: cid, MaxNodes: maxNodes, DurationFor: durationFor}
}

// OnViews runs the resource-selection algorithm: for every candidate
// node-count it estimates, from the view, when the request would start
// (this is the point of views — "applications can scan their view and
// estimate when a request would be served", §3.1.4) and picks the
// node-count with the earliest completion.
func (m *Moldable) OnViews(np, _ view.View) {
	if m.Started {
		return
	}
	m.lastNP = named(np, m.Cluster, m.lastNP)
	bestN, bestEnd := 0, math.Inf(1)
	for n := 1; n <= m.MaxNodes; n++ {
		d := m.DurationFor(n)
		start := m.lastNP.FindHole(n, d, m.now())
		if math.IsInf(start, 1) {
			continue
		}
		if end := start + d; end < bestEnd {
			bestN, bestEnd = n, end
		}
	}
	if bestN == 0 || bestN == m.ChosenN {
		return
	}
	// Update the pending request: withdraw and resubmit.
	if m.haveReq {
		if err := m.sess.Done(m.reqID, nil); err != nil {
			return
		}
		m.haveReq = false
	}
	id, err := m.sess.Request(rms.RequestSpec{
		Cluster: m.Cluster, N: bestN, Duration: m.DurationFor(bestN), Type: request.NonPreempt,
	})
	if err != nil {
		return
	}
	m.reqID = id
	m.haveReq = true
	m.ChosenN = bestN
	m.EstEnd = bestEnd
}

// OnStart locks the choice in.
func (m *Moldable) OnStart(id request.ID, nodeIDs []int) {
	if id != m.reqID {
		return
	}
	m.Started = true
	m.StartIDs = nodeIDs
}
