package apps

import (
	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// Malleable is the generic malleable application of §4: it "first sends a
// non-preemptible request r_min with its minimum requirements. Next, for
// the extra resources (i.e., the malleable part), the application scans its
// preemptive view V_P and sends a preemptible request r_extra, which is
// COALLOCated with r_min." The Usable filter implements the paper's
// example: "if the malleable application requires a power-of-two
// node-count, but 36 nodes are available in its preemptive view, it can
// request 32 nodes, leaving the other 4 to be filled by another
// application."
type Malleable struct {
	base

	Cluster  view.ClusterID
	MinNodes int
	Duration float64
	// Usable maps the preemptible nodes visible in the view to the extra
	// node-count the application can exploit. nil means identity.
	Usable func(visible int) int

	minReq    request.ID
	extraReq  request.ID
	haveExtra bool
	extraN    int

	minStarted bool
	minIDs     []int
	ExtraIDs   []int

	lastP *stepfunc.StepFunc // Cluster's last preemptive profile
}

// NewMalleable creates a malleable application.
func NewMalleable(clk clock.Clock, cid view.ClusterID, minNodes int, duration float64, usable func(int) int) *Malleable {
	if usable == nil {
		usable = func(v int) int { return v }
	}
	return &Malleable{base: base{clk: clk}, Cluster: cid, MinNodes: minNodes, Duration: duration, Usable: usable}
}

// Submit sends the minimum-requirements request.
func (m *Malleable) Submit() error {
	id, err := m.sess.Request(rms.RequestSpec{
		Cluster: m.Cluster, N: m.MinNodes, Duration: m.Duration, Type: request.NonPreempt,
	})
	if err != nil {
		return err
	}
	m.minReq = id
	return nil
}

// OnViews monitors the preemptive view and resizes the malleable part:
// "During execution, the application monitors V_P and updates r_extra if
// necessary" (§4).
func (m *Malleable) OnViews(_, p view.View) {
	m.lastP = named(p, m.Cluster, m.lastP)
	if m.minReq == 0 {
		return // not submitted yet
	}
	visible := m.lastP.Value(m.now())
	target := m.Usable(visible)
	if target < 0 {
		target = 0
	}
	switch {
	case !m.haveExtra && target > 0:
		id, err := m.sess.Request(rms.RequestSpec{
			Cluster: m.Cluster, N: target, Duration: m.Duration,
			Type: request.Preempt, RelatedHow: request.Coalloc, RelatedTo: m.minReq,
		})
		if err != nil {
			return
		}
		m.extraReq = id
		m.haveExtra = true
		m.extraN = target

	case m.haveExtra && target != m.extraN:
		// Update the preemptible request: NEXT keeps the common resources.
		release := len(m.ExtraIDs) - target
		var rel []int
		if release > 0 {
			rel = lastN(m.ExtraIDs, release)
		}
		id, err := m.sess.Request(rms.RequestSpec{
			Cluster: m.Cluster, N: target, Duration: m.Duration,
			Type: request.Preempt, RelatedHow: request.Next, RelatedTo: m.extraReq,
		})
		if err != nil {
			return
		}
		if err := m.sess.Done(m.extraReq, rel); err != nil {
			return
		}
		m.extraReq = id
		m.extraN = target
		if release > 0 {
			m.ExtraIDs = m.ExtraIDs[:len(m.ExtraIDs)-release]
		}
	}
}

// OnStart records allocations for both parts.
func (m *Malleable) OnStart(id request.ID, nodeIDs []int) {
	switch id {
	case m.minReq:
		m.minStarted = true
		m.minIDs = nodeIDs
	case m.extraReq:
		m.ExtraIDs = nodeIDs
	}
}
