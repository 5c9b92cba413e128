package apps

import (
	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// Rigid is the simplest application of §4: "a rigid application sends a
// single non-preemptible request of the user-submitted node-count and
// duration. Since the application does not adapt, it ignores its views."
type Rigid struct {
	base

	Cluster  view.ClusterID
	N        int
	Duration float64

	reqID     request.ID
	submitted bool
	endTimer  clock.Timer

	// Recorded lifecycle, for tests and workload replay statistics.
	StartTime float64
	EndTime   float64
	NodeIDs   []int
	Started   bool
	Ended     bool
	// OnEnd, when set, runs at the job's completion (replay bookkeeping).
	OnEnd func()

	// LostWork accumulates the node·seconds of computation lost to node
	// failures: a killed run's elapsed work, or a requeued run's elapsed work
	// (it will be repeated from scratch). Cooperative recovery checkpoints at
	// the failure, so it adds nothing here.
	LostWork float64
	// Resubmits counts cooperative recoveries: the job checkpointed and
	// resubmitted its remaining duration under a fresh request.
	Resubmits int
}

// NewRigid creates a rigid application.
func NewRigid(clk clock.Clock, cid view.ClusterID, n int, duration float64) *Rigid {
	return &Rigid{base: base{clk: clk}, Cluster: cid, N: n, Duration: duration}
}

// RequestID returns the job's current request ID: the original submission,
// or the latest cooperative resubmission. Harnesses settling on
// server-authoritative events compare against it, so a finish of a
// checkpoint-superseded request is not mistaken for the job's completion.
func (r *Rigid) RequestID() request.ID { return r.reqID }

// Submit sends the single non-preemptible request.
func (r *Rigid) Submit() error {
	if r.submitted {
		return nil
	}
	id, err := r.sess.Request(rms.RequestSpec{
		Cluster: r.Cluster, N: r.N, Duration: r.Duration, Type: request.NonPreempt,
	})
	if err != nil {
		return err
	}
	r.reqID = id
	r.submitted = true
	return nil
}

// OnViews ignores the views, by definition of a rigid job.
func (r *Rigid) OnViews(_, _ view.View) {}

// OnStart records the allocation and schedules the job's completion.
func (r *Rigid) OnStart(id request.ID, nodeIDs []int) {
	if id != r.reqID {
		return
	}
	// A second start is a crash-requeued re-run: the work restarts from
	// scratch, so the completion moves with it — the first run's end timer
	// must not settle the job while the re-run is still executing. (If the
	// re-run starts only after the first run's scheduled end, the stale
	// timer has already fired and settled the job early: the protocol tells
	// an application nothing when a crash requeues its request, so it cannot
	// cancel the timer sooner. Crash-accurate consumers settle on the
	// server-side OnRequestFinished event instead, as the chaos harness does.)
	if r.endTimer != nil {
		r.endTimer.Stop()
	}
	r.Started = true
	r.StartTime = r.now()
	r.NodeIDs = nodeIDs
	r.endTimer = r.clk.AfterFunc(r.Duration, "rigid.end", func() {
		r.Ended = true
		r.EndTime = r.now()
		if r.OnEnd != nil {
			r.OnEnd()
		}
	})
}

// OnNodeFailure makes the rigid job crash-aware. Killed and requeued runs
// cancel the stale end timer immediately — the failure is the crash signal
// the OnStart-only path lacked, so the first run's timer can no longer
// settle the job while nothing (or a from-scratch re-run) is executing.
// Under cooperative recovery (action reduced) the job checkpoints: the
// elapsed work is preserved, a fresh request for the *remaining* duration at
// full width is submitted, and only then is the reduced allocation released
// — the submit-then-done order keeps r.reqID valid at every observable
// instant (Done flushes the old request's finish synchronously).
func (r *Rigid) OnNodeFailure(ev rms.NodeFailure) {
	if ev.Request != r.reqID || !r.Started || r.Ended || r.killed {
		return
	}
	now := r.now()
	elapsed := now - r.StartTime
	if r.endTimer != nil {
		r.endTimer.Stop()
		r.endTimer = nil
	}
	switch ev.Action {
	case rms.NodeFaultKilled:
		// The job is gone (§3.1.4): its elapsed work is lost for good. The
		// reap notification settles harness-side bookkeeping.
		r.LostWork += elapsed * float64(r.N)
		r.Started = false
		r.NodeIDs = nil
	case rms.NodeFaultRequeued:
		// The same request re-runs from scratch when placed again; the
		// elapsed work will be repeated.
		r.LostWork += elapsed * float64(r.N)
		r.Started = false
		r.NodeIDs = nil
	case rms.NodeFaultReduced:
		remaining := r.Duration - elapsed
		survivors := append([]int(nil), ev.Remaining...)
		old := r.reqID
		if remaining <= 0 {
			// The run was complete at the failure instant; nothing to resubmit.
			if err := r.sess.Done(old, survivors); err == nil {
				r.Ended = true
				r.EndTime = now
				if r.OnEnd != nil {
					r.OnEnd()
				}
			}
			return
		}
		id, err := r.sess.Request(rms.RequestSpec{
			Cluster: r.Cluster, N: r.N, Duration: remaining, Type: request.NonPreempt,
		})
		if err != nil {
			// Cannot resubmit (e.g. the session is being torn down): the
			// reduced allocation idles and the checkpoint is moot.
			r.LostWork += elapsed * float64(len(ev.LostIDs))
			return
		}
		r.reqID = id
		r.Resubmits++
		r.Started = false
		r.NodeIDs = nil
		_ = r.sess.Done(old, survivors)
	}
}
