// Package apps implements the application behaviours of §4 against the
// CooRMv2 protocol: rigid, moldable, malleable, fully-predictably evolving,
// non-predictably evolving (the synthetic AMR of the evaluation) and the
// malleable parameter-sweep application (PSA).
//
// Applications are event-driven: they react to OnViews/OnStart/OnKill
// notifications and drive their internal progress with clock timers, so the
// same code runs inside the discrete-event simulator and against the TCP
// client. Inside the simulator every callback runs on the event loop, which
// keeps runs deterministic.
package apps

import (
	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// Session is the application-side handle to the RMS. Both
// *federation.Session (in-process, used by the simulator) and
// *transport.Client (TCP) satisfy it.
type Session interface {
	Request(spec rms.RequestSpec) (request.ID, error)
	Done(id request.ID, released []int) error
}

// base carries the plumbing shared by all applications.
type base struct {
	clk  clock.Clock
	sess Session

	killed     bool
	killReason string
}

// Attach hands the application its session. It must be called right after
// Connect and before the event loop runs.
func (b *base) Attach(s Session) { b.sess = s }

// Killed reports whether the RMS terminated the session, and why.
func (b *base) Killed() (bool, string) { return b.killed, b.killReason }

// OnKill implements rms.AppHandler.
func (b *base) OnKill(reason string) {
	b.killed = true
	b.killReason = reason
}

// now returns the current time.
func (b *base) now() float64 { return b.clk.Now() }

// named returns cid's profile in the view segment v (see
// rms.AppHandler.OnViews), else last (nil: zero): a push that does not name
// the application's cluster — another shard's, or a preemptive segment of
// clusters that changed elsewhere — leaves it alone.
func named(v view.View, cid view.ClusterID, last *stepfunc.StepFunc) *stepfunc.StepFunc {
	if _, ok := v.Lookup(cid); ok || last == nil {
		return v.Get(cid)
	}
	return last
}

// lastN returns the last k elements of ids (the IDs an application gives
// back when shrinking; keeping the lowest IDs makes traces stable).
func lastN(ids []int, k int) []int {
	if k <= 0 {
		return nil
	}
	if k >= len(ids) {
		return ids
	}
	return ids[len(ids)-k:]
}
