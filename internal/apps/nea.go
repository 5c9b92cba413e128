package apps

import (
	"fmt"

	"coormv2/internal/amr"
	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// NEAMode selects how the synthetic AMR behaves in the evaluation (§5.2):
// Dynamic is the CooRMv2 behaviour (allocate only what the current step
// needs, inside the pre-allocation); Static forces the application "to use
// all the resources it has pre-allocated", the baseline.
type NEAMode uint8

const (
	// NEADynamic adapts the allocation every step.
	NEADynamic NEAMode = iota
	// NEAStatic holds the full pre-allocation for the whole run.
	NEAStatic
)

// NEAConfig parametrizes the synthetic AMR application.
type NEAConfig struct {
	Cluster view.ClusterID
	// Profile is the working-set evolution (not known to the application in
	// advance — it only ever reads Profile[step]).
	Profile amr.Profile
	// Params is the speed-up model, which the application does know (§5.1.1
	// "the application knows its speed-up model, but cannot predict how the
	// working set will evolve").
	Params amr.SpeedupParams
	// TargetEff is the efficiency the application targets (75 % in §5).
	TargetEff float64
	// PreAllocN is the user's guess of the equivalent static allocation
	// (overcommit factor × n_eq), used as the pre-allocation size: the
	// "sure execution" strategy of §4.
	PreAllocN int
	// Mode selects dynamic or static behaviour.
	Mode NEAMode
	// AnnounceInterval, when positive, switches from spontaneous updates to
	// announced updates with this notice (§5.3). The node-count in the
	// update is the count required at the moment the update is initiated.
	AnnounceInterval float64
	// Horizon is the pre-allocation duration; it must exceed the actual run
	// time. The default (1e8 s) is effectively "until done() is called".
	Horizon float64
}

// NEA is the synthetic non-predictably evolving AMR application of §5.1.1.
type NEA struct {
	base
	cfg NEAConfig

	paID   request.ID
	curReq request.ID
	curN   int
	curIDs []int

	step       int
	stepTimer  clock.Timer
	updating   bool // an update is in flight (waiting for OnStart)
	pendingN   int  // node-count of the in-flight update
	blockStep  bool // spontaneous update: step loop waits for the new nodes
	finished   bool
	paStarted  bool
	reqStarted bool

	// Results.
	StartTime float64
	EndTime   float64
	// Err records a protocol error; the simulation harness fails on it.
	Err error
	// OnFinish, when set, runs right after the application completes
	// (the experiment harness uses it to freeze the simulation clock at
	// the makespan).
	OnFinish func()
}

// NewNEA creates the AMR application.
func NewNEA(clk clock.Clock, cfg NEAConfig) *NEA {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 1e8
	}
	if cfg.TargetEff <= 0 {
		cfg.TargetEff = 0.75
	}
	return &NEA{base: base{clk: clk}, cfg: cfg}
}

// Finished reports whether the application completed all its steps.
func (a *NEA) Finished() bool { return a.finished }

// Step returns the current step index (== len(Profile) when finished).
func (a *NEA) Step() int { return a.step }

// desiredNodes returns the node-count for the given step, clamped into
// [1, PreAllocN]: a sure-execution NEA never outgrows its pre-allocation.
func (a *NEA) desiredNodes(step int) int {
	if a.cfg.Mode == NEAStatic {
		return a.cfg.PreAllocN
	}
	n := a.cfg.Params.NodesForEfficiency(a.cfg.Profile[step], a.cfg.TargetEff)
	if n > a.cfg.PreAllocN {
		n = a.cfg.PreAllocN
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Submit sends the pre-allocation and the initial non-preemptible request
// (COALLOCated so they start together).
func (a *NEA) Submit() error {
	if len(a.cfg.Profile) == 0 {
		return fmt.Errorf("apps: NEA needs a profile")
	}
	if a.cfg.PreAllocN < 1 {
		return fmt.Errorf("apps: NEA needs a positive pre-allocation")
	}
	pa, err := a.sess.Request(rms.RequestSpec{
		Cluster: a.cfg.Cluster, N: a.cfg.PreAllocN, Duration: a.cfg.Horizon, Type: request.PreAlloc,
	})
	if err != nil {
		return err
	}
	a.paID = pa
	n0 := a.desiredNodes(0)
	r0, err := a.sess.Request(rms.RequestSpec{
		Cluster: a.cfg.Cluster, N: n0, Duration: a.cfg.Horizon,
		Type: request.NonPreempt, RelatedHow: request.Coalloc, RelatedTo: pa,
	})
	if err != nil {
		return err
	}
	a.curReq = r0
	a.curN = n0
	return nil
}

// OnViews is ignored: a sure-execution NEA relies on its pre-allocation,
// not on view scanning.
func (a *NEA) OnViews(_, _ view.View) {}

// OnStart drives the application's state machine.
func (a *NEA) OnStart(id request.ID, nodeIDs []int) {
	switch {
	case id == a.paID:
		a.paStarted = true

	case id == a.curReq && !a.reqStarted:
		// Initial allocation: begin computing.
		a.reqStarted = true
		a.curIDs = nodeIDs
		a.StartTime = a.now()
		a.runStep()

	case a.updating && id == a.curReq:
		// An update completed (spontaneous or the tail of an announced
		// chain): adopt the new allocation.
		a.updating = false
		a.curIDs = nodeIDs
		a.curN = a.pendingN
		if a.blockStep {
			a.blockStep = false
			a.runStep()
		}
	}
}

// runStep executes the current computation step and schedules the next.
func (a *NEA) runStep() {
	if a.finished || a.killed {
		return
	}
	if a.step >= len(a.cfg.Profile) {
		a.finish()
		return
	}
	dur := a.cfg.Params.StepTime(a.curN, a.cfg.Profile[a.step])
	a.stepTimer = a.clk.AfterFunc(dur, "nea.step", func() {
		a.step++
		if a.step >= len(a.cfg.Profile) {
			a.finish()
			return
		}
		a.maybeUpdate()
		if !a.blockStep {
			a.runStep()
		}
	})
}

// maybeUpdate adjusts the allocation to the new step's requirement using a
// spontaneous or announced update (§3.1.3).
func (a *NEA) maybeUpdate() {
	if a.updating {
		return // one update in flight at a time
	}
	desired := a.desiredNodes(a.step)
	if desired == a.curN {
		return
	}
	if a.cfg.AnnounceInterval <= 0 {
		a.spontaneousUpdate(desired)
	} else {
		a.announcedUpdate(desired)
	}
}

// spontaneousUpdate is Fig. 6(b): request(new) NEXT current, done(current).
// The step loop blocks until the new allocation is delivered — the RMS
// guarantees it promptly because it is inside the pre-allocation.
func (a *NEA) spontaneousUpdate(desired int) {
	newReq, err := a.sess.Request(rms.RequestSpec{
		Cluster: a.cfg.Cluster, N: desired, Duration: a.cfg.Horizon,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: a.curReq,
	})
	if err != nil {
		a.Err = err
		return
	}
	var release []int
	if desired < a.curN {
		release = lastN(a.curIDs, a.curN-desired)
	}
	if err := a.sess.Done(a.curReq, release); err != nil {
		a.Err = err
		return
	}
	a.curReq = newReq
	a.pendingN = desired
	a.updating = true
	a.blockStep = true
}

// announcedUpdate is Fig. 6(c): a bridge request keeps the current
// node-count for the announce interval, then the new node-count follows.
// Computation continues at the current allocation during the notice —
// "the AMR receives new nodes later than it would require to maintain its
// target efficiency" (§5.3).
func (a *NEA) announcedUpdate(desired int) {
	bridge, err := a.sess.Request(rms.RequestSpec{
		Cluster: a.cfg.Cluster, N: a.curN, Duration: a.cfg.AnnounceInterval,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: a.curReq,
	})
	if err != nil {
		a.Err = err
		return
	}
	newReq, err := a.sess.Request(rms.RequestSpec{
		Cluster: a.cfg.Cluster, N: desired, Duration: a.cfg.Horizon,
		Type: request.NonPreempt, RelatedHow: request.Next, RelatedTo: bridge,
	})
	if err != nil {
		a.Err = err
		return
	}
	if err := a.sess.Done(a.curReq, nil); err != nil {
		a.Err = err
		return
	}
	a.curReq = newReq
	a.pendingN = desired
	a.updating = true
	// blockStep stays false: steps continue at the old allocation.
}

// finish releases everything.
func (a *NEA) finish() {
	a.finished = true
	a.EndTime = a.now()
	if a.reqStarted {
		_ = a.sess.Done(a.curReq, nil)
	}
	if a.paStarted {
		_ = a.sess.Done(a.paID, nil)
	}
	if a.OnFinish != nil {
		a.OnFinish()
	}
}
