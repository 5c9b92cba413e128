// Package clock abstracts time for the RMS so that the same scheduling code
// runs against the discrete-event simulator (evaluation, §5) and the wall
// clock (the real-life prototype daemon, §3.2).
package clock

import (
	"math"
	"time"

	"coormv2/internal/sim"
)

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the callback; it reports whether it was still pending.
	Stop() bool
}

// Clock provides the current time (seconds since an arbitrary epoch) and
// one-shot callbacks.
type Clock interface {
	Now() float64
	// AfterFunc schedules fn to run d seconds from now.
	AfterFunc(d float64, name string, fn func()) Timer
}

// SimClock adapts a sim.Engine to the Clock interface.
type SimClock struct {
	E *sim.Engine
}

// Now returns the engine's virtual time.
func (c SimClock) Now() float64 { return c.E.Now() }

// AfterFunc schedules fn on the engine.
func (c SimClock) AfterFunc(d float64, name string, fn func()) Timer {
	return c.E.After(d, name, fn)
}

// RealClock implements Clock using the wall clock. The epoch is the moment
// the clock is created, so times stay small and readable in logs.
type RealClock struct {
	epoch time.Time
}

// NewRealClock returns a wall clock with its epoch at the current instant.
func NewRealClock() *RealClock {
	return &RealClock{epoch: time.Now()}
}

// Now returns the seconds elapsed since the clock's epoch.
func (c *RealClock) Now() float64 {
	return time.Since(c.epoch).Seconds()
}

// AfterFunc schedules fn on a real timer, the Timer (its Stop reports false
// once fn has started). The name is ignored (it exists for simulation traces).
func (c *RealClock) AfterFunc(d float64, _ string, fn func()) Timer {
	return time.AfterFunc(duration(d), fn)
}

// duration converts d seconds to a time.Duration clamped to [0, ≈292 years]:
// past its range the product would wrap negative and fire at once.
func duration(d float64) time.Duration {
	if !(d > 0) {
		return 0
	}
	ns := d * float64(time.Second)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}
