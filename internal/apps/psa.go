package apps

import (
	"math"
	"sort"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// PSAConfig parametrizes the parameter-sweep application of §5.1.2.
type PSAConfig struct {
	Cluster view.ClusterID
	// TaskDuration is d_task: every task occupies one node for exactly this
	// long. The application has infinitely many tasks.
	TaskDuration float64
	// Metrics receives the waste (node·seconds of killed tasks). Optional.
	Metrics *metrics.Recorder
	// MetricsID is the application ID under which waste is recorded.
	MetricsID int

	// IgnoreWindows disables the §4 resource-selection rule ("select only
	// the resources it can actually take advantage of"): the PSA claims
	// every visible node even when the availability window cannot fit a
	// task. Ablation knob; see internal/experiments.AblationPSA.
	IgnoreWindows bool
	// NoGraceful disables the graceful-release planner: announced
	// reclamations are treated like spontaneous ones (tasks are killed at
	// the drop). Ablation knob.
	NoGraceful bool
}

// pendingBatch is a release that could not execute yet (update in flight).
type pendingBatch struct {
	ids  []int
	kill bool
}

// psaNode is one allocated node and the start time of its current task.
// stopAt, when finite, marks the task boundary after which the node must
// not start another task: the release planner set it because the node is
// about to be given back. An idle node (now >= stopAt) carries no
// in-progress work, so releasing it late costs nothing.
type psaNode struct {
	id        int
	taskStart float64
	stopAt    float64 // +Inf when the node runs tasks back-to-back
}

// PSA is the malleable parameter-sweep application: "composed of an
// infinite number of single-node tasks, each of duration d_task. The PSA
// monitors its preemptive view. If more resources are available to it than
// it has currently allocated, it updates its preemptible request and spawns
// new processes. If the RMS requires it to release resources immediately,
// it kills a few tasks then updates its request. The computations done so
// far are lost [waste]. If the RMS is able to inform the PSA in a timely
// manner that resources will become unavailable, then the PSA waits for
// some tasks to complete ... no waste occurs" (§5.1.2).
//
// Resource selection (§4): a node is only claimed when its visible
// availability window can fit at least one full task.
type PSA struct {
	base
	cfg PSAConfig

	reqID   request.ID
	haveReq bool
	// updating is true while a request update awaits its start
	// notification; re-planning is deferred until then.
	updating      bool
	replanPending bool

	nodes  []psaNode
	timers []clock.Timer
	// pendingRelease queues release batches whose timer fired while an
	// update was in flight; they are executed as soon as it lands.
	pendingRelease []pendingBatch

	lastView *stepfunc.StepFunc

	waste     float64
	completed int

	// Err records the first protocol error (test harnesses fail on it).
	Err error

	// OnWasteEvent, when set, observes every kill (diagnostics).
	OnWasteEvent func(now, nodeSeconds float64, context string)
}

// NewPSA creates a parameter-sweep application.
func NewPSA(clk clock.Clock, cfg PSAConfig) *PSA {
	if cfg.TaskDuration <= 0 {
		panic("apps: PSA needs a positive task duration")
	}
	return &PSA{base: base{clk: clk}, cfg: cfg, lastView: stepfunc.Zero()}
}

// SetMetricsID sets the application ID under which waste is recorded
// (known only once the session is connected).
func (p *PSA) SetMetricsID(id int) { p.cfg.MetricsID = id }

// SetIgnoreWindows toggles the window-aware selection rule (ablation).
func (p *PSA) SetIgnoreWindows(v bool) { p.cfg.IgnoreWindows = v }

// SetNoGraceful toggles the graceful-release planner (ablation).
func (p *PSA) SetNoGraceful(v bool) { p.cfg.NoGraceful = v }

// Waste returns the node·seconds lost to killed tasks so far.
func (p *PSA) Waste() float64 { return p.waste }

// elapsed returns the in-progress work on a node at time now (0 if the
// node is idling past its stop mark). Call after rollForward.
func (p *PSA) elapsed(nd psaNode, now float64) float64 {
	if now >= nd.stopAt {
		return 0
	}
	e := now - nd.taskStart
	if e < 0 {
		return 0
	}
	return e
}

// HeldNodes returns the number of nodes currently allocated.
func (p *PSA) HeldNodes() int { return len(p.nodes) }

// OnViews stores the preemptive profile of its cluster, when the segment
// names it, and re-plans.
func (p *PSA) OnViews(_, pv view.View) {
	p.lastView = named(pv, p.cfg.Cluster, p.lastView)
	p.plan()
}

// OnStart adopts the allocation of a request update.
func (p *PSA) OnStart(id request.ID, nodeIDs []int) {
	if id != p.reqID {
		return
	}
	p.updating = false
	now := p.now()
	prev := make(map[int]psaNode, len(p.nodes))
	for _, nd := range p.nodes {
		prev[nd.id] = nd
	}
	p.nodes = p.nodes[:0]
	for _, nid := range nodeIDs {
		nd, ok := prev[nid]
		if !ok {
			// Fresh node: a new task starts immediately.
			nd = psaNode{id: nid, taskStart: now, stopAt: math.Inf(1)}
		}
		p.nodes = append(p.nodes, nd)
	}
	p.replanPending = false
	// Execute releases that fired while the update was in flight; the stop
	// marks kept those nodes idle, so a late graceful release is free.
	if len(p.pendingRelease) > 0 {
		batches := p.pendingRelease
		p.pendingRelease = nil
		for _, b := range batches {
			// If an earlier batch issued an update, releaseBatch requeues
			// the later ones by itself.
			p.releaseBatch(b.ids, b.kill)
		}
	}
	p.plan()
}

// OnKill stops all activity.
func (p *PSA) OnKill(reason string) {
	p.base.OnKill(reason)
	p.cancelTimers()
}

// OnNodeFailure reacts to machine failures. The RMS already stripped the
// dead nodes from the preemptible allocation (revocation is within the P
// contract, so the action is always a reduction): the PSA records the
// in-progress work lost on them as waste, forgets the nodes, and re-plans
// against the shrunken holding — claiming replacement capacity as soon as
// the views show any.
func (p *PSA) OnNodeFailure(ev rms.NodeFailure) {
	if p.killed || p.Err != nil || len(ev.LostIDs) == 0 {
		return
	}
	now := p.now()
	p.rollForward(now)
	for _, nodeID := range ev.LostIDs {
		for i, nd := range p.nodes {
			if nd.id == nodeID {
				p.recordWaste(p.elapsed(nd, now), "node-failure")
				p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
				break
			}
		}
	}
	p.plan()
}

// rollForward advances every node's current-task start past completed
// tasks, counting them. Nodes never roll past their stop mark: after it
// they idle instead of starting a task that is known to be doomed.
func (p *PSA) rollForward(now float64) {
	d := p.cfg.TaskDuration
	for i := range p.nodes {
		limit := math.Min(now, p.nodes[i].stopAt)
		k := int(math.Floor((limit - p.nodes[i].taskStart) / d))
		if k > 0 {
			p.completed += k
			p.nodes[i].taskStart += float64(k) * d
		}
	}
}

func (p *PSA) cancelTimers() {
	for _, t := range p.timers {
		t.Stop()
	}
	p.timers = p.timers[:0]
}

// recordWaste adds killed-task waste.
func (p *PSA) recordWaste(w float64, context string) {
	if w <= 0 {
		return
	}
	p.waste += w
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.AddWaste(p.cfg.MetricsID, w)
	}
	if p.OnWasteEvent != nil {
		p.OnWasteEvent(p.now(), w, context)
	}
}

// updateRequest resizes the preemptible allocation to n nodes, releasing
// the given IDs (the update operation of §3.1.3 on a preemptible request).
func (p *PSA) updateRequest(n int, released []int) {
	switch {
	case !p.haveReq:
		if n <= 0 {
			return
		}
		id, err := p.sess.Request(rms.RequestSpec{
			Cluster: p.cfg.Cluster, N: n, Duration: math.Inf(1), Type: request.Preempt,
		})
		if err != nil {
			p.Err = err
			return
		}
		p.reqID = id
		p.haveReq = true
		p.updating = true

	case n <= 0:
		if err := p.sess.Done(p.reqID, nil); err != nil {
			p.Err = err
			return
		}
		p.haveReq = false
		p.nodes = p.nodes[:0]

	default:
		id, err := p.sess.Request(rms.RequestSpec{
			Cluster: p.cfg.Cluster, N: n, Duration: math.Inf(1),
			Type: request.Preempt, RelatedHow: request.Next, RelatedTo: p.reqID,
		})
		if err != nil {
			p.Err = err
			return
		}
		if err := p.sess.Done(p.reqID, released); err != nil {
			p.Err = err
			return
		}
		p.reqID = id
		p.updating = true
	}
}

// claimable returns the node count the PSA should hold given the view: at
// most the current availability, never fewer than currently held (shrinking
// is handled by the release planner), and only counting ranks whose
// availability window fits at least one full task.
func (p *PSA) claimable(v *stepfunc.StepFunc, now float64) int {
	cap := v.Value(now)
	if cap < 0 {
		cap = 0
	}
	held := len(p.nodes)
	m := cap
	if !p.cfg.IgnoreWindows {
		for m > held {
			drop := v.FirstBelow(m, now)
			if math.IsInf(drop, 1) || drop-now >= p.cfg.TaskDuration {
				break
			}
			m--
		}
	}
	if m < held {
		m = held
	}
	return m
}

// plan is the PSA's brain: called after every view push, start notification
// and release timer.
func (p *PSA) plan() {
	if p.killed || p.Err != nil {
		return
	}
	if p.updating {
		p.replanPending = true
		return
	}
	p.cancelTimers()
	now := p.now()
	p.rollForward(now)
	v := p.lastView
	d := p.cfg.TaskDuration

	capNow := v.Value(now)
	if capNow < 0 {
		capNow = 0
	}

	// 1. Immediate revocation: the view dropped below the current holding;
	// kill tasks (least elapsed first — idle nodes are free) and release.
	if capNow < len(p.nodes) {
		k := len(p.nodes) - capNow
		idx := make([]int, len(p.nodes))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return p.elapsed(p.nodes[idx[a]], now) < p.elapsed(p.nodes[idx[b]], now)
		})
		released := make([]int, 0, k)
		kill := map[int]bool{}
		for _, i := range idx[:k] {
			kill[i] = true
			released = append(released, p.nodes[i].id)
			p.recordWaste(p.elapsed(p.nodes[i], now), "immediate-revocation")
		}
		kept := p.nodes[:0]
		for i, nd := range p.nodes {
			if !kill[i] {
				kept = append(kept, nd)
			}
		}
		p.nodes = kept
		p.updateRequest(capNow, released)
		return
	}

	// 2. Growth: claim usable nodes.
	if target := p.claimable(v, now); target > len(p.nodes) {
		p.updateRequest(target, nil)
		return
	}

	// 3. Graceful release planning for announced future drops: walk the
	// view's breakpoints; whenever the (running-minimum) availability falls
	// below the unplanned holding, pick victims. The PSA "waits for some
	// tasks to complete, afterwards it updates its request to release the
	// resources on which the completed tasks ran" (§5.1.2): a victim whose
	// current task finishes by the drop is released at that first
	// completion (no waste); a victim whose task overruns the drop is
	// killed at the drop (waste). Releasing at the first completion, not
	// the last one before the drop, keeps the plan stable under
	// re-planning: any later re-plan sees the same earliest completions.
	// Any previous stop marks are re-derived from scratch against the
	// current view. A node that idled past its old mark resumes with a
	// fresh task *now* — its idle time must not be mistaken for work.
	for i := range p.nodes {
		if now >= p.nodes[i].stopAt {
			p.nodes[i].taskStart = now
		}
		p.nodes[i].stopAt = math.Inf(1)
	}
	planned := map[int]bool{}          // node index -> already planned
	batches := map[float64][]int{}     // release time -> node IDs (graceful)
	killBatches := map[float64][]int{} // drop time -> node IDs (kill)
	runMin := len(p.nodes)
	for k := 0; k < v.Len(); k++ {
		bp, val := v.At(k)
		if bp <= now {
			continue
		}
		if val < 0 {
			val = 0
		}
		if val >= runMin {
			continue
		}
		runMin = val
		need := 0
		for i := range p.nodes {
			if !planned[i] {
				need++
			}
		}
		need -= val
		if need <= 0 {
			continue
		}
		// After rollForward every node's current task started at
		// taskStart ∈ (now−d, now]; its next completion is taskStart+d.
		type cand struct {
			i          int
			completion float64
			graceful   bool
		}
		var cands []cand
		for i := range p.nodes {
			if planned[i] {
				continue
			}
			next := p.nodes[i].taskStart + d
			graceful := next <= bp && !p.cfg.NoGraceful
			cands = append(cands, cand{i: i, completion: next, graceful: graceful})
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].graceful != cands[b].graceful {
				return cands[a].graceful
			}
			return cands[a].completion < cands[b].completion
		})
		for _, c := range cands[:need] {
			planned[c.i] = true
			nodeID := p.nodes[c.i].id
			if c.graceful {
				// Stop mark: do not start another task after this one; the
				// node will be handed back at (or slightly after) the
				// completion, idling in between at zero cost.
				p.nodes[c.i].stopAt = c.completion
				batches[c.completion] = append(batches[c.completion], nodeID)
			} else {
				killBatches[bp] = append(killBatches[bp], nodeID)
			}
		}
	}
	// One timer (and one request update) per distinct release instant:
	// releasing node-by-node would serialize through the re-scheduling
	// interval and miss later boundaries.
	for when, ids := range batches {
		ids := ids
		p.timers = append(p.timers, p.clk.AfterFunc(when-now, "psa.release", func() {
			p.releaseBatch(ids, false)
		}))
	}
	for when, ids := range killBatches {
		ids := ids
		p.timers = append(p.timers, p.clk.AfterFunc(when-now, "psa.kill", func() {
			p.releaseBatch(ids, true)
		}))
	}
}

// releaseBatch gives a group of nodes back (timer callback of the release
// plan). Graceful releases may fire slightly late (an update was in
// flight); the stop marks guarantee the nodes idled meanwhile, so no work
// is lost.
func (p *PSA) releaseBatch(nodeIDs []int, kill bool) {
	if p.killed || p.Err != nil {
		return
	}
	if p.updating {
		// An update raced with the plan; queue the release until it lands.
		// The stop marks keep the affected nodes idle until then.
		p.pendingRelease = append(p.pendingRelease, pendingBatch{ids: nodeIDs, kill: kill})
		return
	}
	now := p.now()
	p.rollForward(now)
	released := make([]int, 0, len(nodeIDs))
	for _, nodeID := range nodeIDs {
		idx := -1
		for i, nd := range p.nodes {
			if nd.id == nodeID {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue // already gone
		}
		if kill {
			p.recordWaste(p.elapsed(p.nodes[idx], now), "planned-kill")
		}
		p.nodes = append(p.nodes[:idx], p.nodes[idx+1:]...)
		released = append(released, nodeID)
	}
	if len(released) == 0 {
		return
	}
	p.updateRequest(len(p.nodes), released)
}
