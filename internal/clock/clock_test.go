package clock

import (
	"math"
	"sync"
	"testing"
	"time"

	"coormv2/internal/sim"
)

func TestSimClock(t *testing.T) {
	e := sim.NewEngine()
	var c Clock = SimClock{E: e}
	if c.Now() != 0 {
		t.Errorf("Now = %v", c.Now())
	}
	fired := -1.0
	c.AfterFunc(12.5, "x", func() { fired = c.Now() })
	e.RunAll()
	if fired != 12.5 {
		t.Errorf("fired at %v, want 12.5", fired)
	}
}

func TestSimClockTimerStop(t *testing.T) {
	e := sim.NewEngine()
	c := SimClock{E: e}
	fired := false
	tm := c.AfterFunc(5, "x", func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop should succeed for pending timer")
	}
	e.RunAll()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestRealClockNowMonotone(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	time.Sleep(5 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Errorf("real clock not advancing: %v then %v", a, b)
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	c := NewRealClock()
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	c.AfterFunc(0.02, "x", func() { wg.Done() })
	wg.Wait()
	if time.Since(start) < 15*time.Millisecond {
		t.Error("AfterFunc fired too early")
	}
}

func TestRealClockTimerStop(t *testing.T) {
	c := NewRealClock()
	fired := make(chan struct{}, 1)
	tm := c.AfterFunc(0.05, "x", func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Error("Stop should succeed")
	}
	select {
	case <-fired:
		t.Error("stopped real timer fired")
	case <-time.After(80 * time.Millisecond):
	}
}

func TestRealClockNegativeDelay(t *testing.T) {
	c := NewRealClock()
	var wg sync.WaitGroup
	wg.Add(1)
	c.AfterFunc(-5, "x", func() { wg.Done() })
	wg.Wait() // must fire ~immediately rather than panic
}

func TestRealTimerStopAfterFire(t *testing.T) {
	c := NewRealClock()
	var wg sync.WaitGroup
	wg.Add(1)
	tm := c.AfterFunc(0.01, "x", func() { wg.Done() })
	wg.Wait() // the callback has started
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
}

// TestDurationClamps pins the seconds → time.Duration conversion at delays a
// request's duration can reach: past time.Duration's range the product would
// wrap negative and fire at once.
func TestDurationClamps(t *testing.T) {
	for _, tc := range []struct {
		d    float64
		want time.Duration
	}{
		{1.5, 1500 * time.Millisecond},
		{1e6, 1e6 * time.Second},
		{1e12, math.MaxInt64},
		{1e300, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{-5, 0},
		{math.NaN(), 0},
	} {
		if got := duration(tc.d); got != tc.want {
			t.Errorf("duration(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}
