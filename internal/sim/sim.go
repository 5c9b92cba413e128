// Package sim provides the discrete-event simulation engine used by the
// evaluation (§5): "we have first written a real-life prototype RMS and
// synthetic applications. Then, we have replaced remote calls with direct
// function calls and calls to sleep() with simulator events."
//
// The engine is a deterministic event loop over virtual time: events fire
// in (time, sequence) order, so two runs with the same inputs produce
// identical traces.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback.
type event struct {
	at   float64
	seq  int64
	name string
	fn   func()
	dead bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer handles a scheduled event; Stop cancels it if it has not fired.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It returns true if the event had not fired yet.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	return true
}

// Engine is a discrete-event simulation engine with a virtual clock.
// It is not safe for concurrent use: simulated processes are cooperative
// callbacks, which is exactly what makes runs deterministic.
type Engine struct {
	now     float64
	seq     int64
	events  eventHeap
	stopped bool
	// processed counts fired events, for diagnostics and runaway detection.
	processed int64
	// observe, when set, sees every fired event just before its callback
	// runs (time, name). The chaos harness uses it to fingerprint the full
	// event stream: two runs are identical iff their observers see the same
	// sequence.
	observe func(at float64, name string)
}

// SetObserver installs (or, with nil, removes) the fired-event observer.
func (e *Engine) SetObserver(fn func(at float64, name string)) { e.observe = fn }

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() int64 { return e.processed }

// Pending returns the number of events still queued (including cancelled
// ones not yet drained).
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a logic error in a simulated process.
func (e *Engine) At(t float64, name string, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now=%v", name, t, e.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling %q at NaN", name))
	}
	ev := &event{at: t, seq: e.seq, name: name, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, name string, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return e.At(e.now+d, name, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in order until the clock reaches `until` (use
// math.Inf(1) for no horizon), until Stop is called, or — with an infinite
// horizon — until the queue is empty. With a finite horizon the clock is
// advanced to `until`, if behind it, even when the queue empties first, so
// callers can step simulations whose processes keep lazy (event-free) state,
// like the PSA's task bookkeeping. It returns the events processed by it.
func (e *Engine) Run(until float64) int64 {
	e.stopped = false
	var n int64
	for len(e.events) > 0 && !e.stopped {
		ev := heap.Pop(&e.events).(*event)
		if ev.dead {
			continue
		}
		if ev.at > until {
			// Put it back for a later Run call and stop here.
			heap.Push(&e.events, ev)
			e.now = max(e.now, until)
			return n
		}
		e.now = ev.at
		fn := ev.fn
		ev.dead = true
		ev.fn = nil
		e.processed++
		n++
		if e.observe != nil {
			e.observe(ev.at, ev.name)
		}
		fn()
	}
	if !e.stopped && !math.IsInf(until, 1) && e.now < until {
		e.now = until
	}
	return n
}

// RunAll processes events until none remain.
func (e *Engine) RunAll() int64 { return e.Run(math.Inf(1)) }
