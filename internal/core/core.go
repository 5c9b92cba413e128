// Package core implements the CooRMv2 scheduling algorithms of the paper's
// appendix: toView (Algorithm 1), fit (Algorithm 2), eqSchedule
// (Algorithm 3) and the main scheduling algorithm (Algorithm 4).
//
// The scheduler is a pure state machine: Schedule(now) maps the current
// request state to per-application views and start decisions without
// performing any I/O. The surrounding RMS layer (internal/rms) owns node-ID
// pools, timers and application notifications; this split is what lets the
// same scheduler run inside the discrete-event simulator and inside the real
// TCP daemon, exactly as the paper's authors did with their prototype (§5).
//
// Scheduling order follows §3.2: applications are sorted by connection time;
// pre-allocations are scheduled first using Conservative Back-Filling, then
// non-preemptible requests inside the pre-allocations (requests that cannot
// be served from a pre-allocation are implicitly wrapped in pre-allocations
// of the same size), and the remaining resources are used for preemptible
// requests via equi-partitioning with filling.
package core

import (
	"math"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// timeEps is the tolerance when comparing scheduled times against "now".
// All times flow through exact float64 arithmetic, but an epsilon keeps the
// start test robust against accumulated rounding in long simulations.
const timeEps = 1e-9

// reqQueue is a FIFO of requests used by the fixed-point loops of
// Algorithms 1 and 2. Popping advances a head index instead of re-slicing,
// so reset() can reuse the backing array across calls.
type reqQueue struct {
	items []*request.Request
	head  int
}

func (q *reqQueue) push(r *request.Request) { q.items = append(q.items, r) }

func (q *reqQueue) pop() *request.Request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	return r
}

func (q *reqQueue) empty() bool { return q.head >= len(q.items) }

func (q *reqQueue) reset() {
	for i := q.head; i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.head = 0
}

// scratch holds the per-Scheduler buffers reused across scheduling rounds.
// One Schedule round performs thousands of small CAP operations; hanging
// their transient storage off the Scheduler keeps the hot path almost
// allocation-free. A zero scratch is ready to use, so the test-only
// wrappers of fit/toView/eqSchedule can run with a throwaway one.
type scratch struct {
	q reqQueue

	// Schedule round accumulators. paFree and availNP are a CBF step's
	// pre-allocated space and the availability its ¬P requests are fitted
	// into (cbfStep).
	inPA    view.View
	paFree  view.View
	availNP view.View

	// Incremental-recomputation buffers. paScratch/npScratch alternate with
	// the per-app cached rect lists (capture into scratch, compare, swap),
	// so a dirty-app refresh allocates nothing in steady state.
	rectScratch []rectA
	paScratch   []rectA
	npScratch   []rectA
	foldFns     []*stepfunc.StepFunc
	walks       []*clusterWalk

	// eqSchedule buffers. grantP is an application's granted view
	// restricted to its preemptible requests' clusters, grantNow its
	// fragments there, and fixedP what its fixed requests occupy of it.
	grantP   view.View
	grantNow []*stepfunc.StepFunc
	fixedP   view.View
	occ      []int // indices of applications with non-nil occupancy
	vocc     []view.View
	clusters []view.ClusterID
	cseen    map[view.ClusterID]bool
	bps      []float64
	profs    []*stepfunc.StepFunc // per-source profile cursors, [0] = vin
	walkIn   []*stepfunc.StepFunc // newClusterWalk's distinct inputs
	walkOut  []*stepfunc.StepFunc // walkCluster's per-slot outputs
	cursor   []int
	val      []int
	req      []int
	share    []int
	need     []int
	grant    []int
	builders []stepfunc.Builder

	// clusterWalk.permute buffers.
	moved     []int
	slotOf    map[*stepfunc.StepFunc]int
	nextSame  []int
	from      []int
	permFrags []*stepfunc.StepFunc
	permCuts  []cutFrag
}

// grown returns s resized to n elements, reusing capacity.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// allocEps is the width of the instantaneous window used for preemptible
// entitlements (see allocWindow).
const allocEps = 1e-6

// allocWindow returns the [start, end) window over which a request's
// allocation must be covered by an availability view when computing NAlloc.
// The window is clamped to start no earlier than now: availability profiles
// are reconstructed each round, so their values in the past are not
// meaningful for enforcement.
//
// For preemptible requests the window is instantaneous: the entitlement of
// a preemptible allocation is its *current* availability. Future reductions
// are signalled through the preemptive view ("either immediately or at a
// future time", §3.1.4) and only become binding — NAlloc shrinks, and the
// grace-period enforcement starts — once the scheduling round at the drop
// time recomputes the entitlement. Using the whole remaining duration
// instead would make any announced future reclamation retroactively shrink
// an open-ended allocation at announce time.
func allocWindow(r *request.Request, now float64) (float64, float64) {
	start := r.ScheduledAt
	if start < now {
		start = now
	}
	if r.Type == request.Preempt {
		return start, start + allocEps
	}
	end := r.ScheduledAt + r.Duration
	if math.IsInf(r.Duration, 1) {
		end = math.Inf(1)
	}
	return start, end
}
