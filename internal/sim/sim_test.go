package sim

import (
	"math"
	"testing"
)

func TestRunInOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, "b", func() { order = append(order, "b") })
	e.At(5, "a", func() { order = append(order, "a") })
	e.At(20, "c", func() { order = append(order, "c") })
	n := e.RunAll()
	if n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "tie", func() { order = append(order, i) })
	}
	e.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.At(5, "outer", func() {
		e.After(10, "inner", func() { at = e.Now() })
	})
	e.RunAll()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, "tick", tick)
		}
	}
	e.After(1, "tick", tick)
	e.RunAll()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	fired := []float64{}
	for _, tt := range []float64{1, 2, 3, 10, 20} {
		tt := tt
		e.At(tt, "x", func() { fired = append(fired, tt) })
	}
	e.Run(5)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events before horizon", fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want horizon 5", e.Now())
	}
	e.RunAll()
	if len(fired) != 5 {
		t.Errorf("remaining events lost after horizon resume: %v", fired)
	}
}

// TestRunNeverMovesTimeBackwards steps to a horizon the clock has passed,
// with an event pending and with none, and from inside a callback whose
// nested Run passes the outer horizon.
func TestRunNeverMovesTimeBackwards(t *testing.T) {
	e := NewEngine()
	e.After(100, "pending", func() {})
	e.Run(60)
	e.Run(30)
	if e.Now() != 60 {
		t.Errorf("with an event pending, Run(30) after Run(60) left Now = %v, want 60", e.Now())
	}
	empty := NewEngine()
	empty.Run(60)
	empty.Run(30)
	if empty.Now() != 60 {
		t.Errorf("with no event pending, Run(30) after Run(60) left Now = %v, want 60", empty.Now())
	}

	nested := NewEngine()
	nested.At(10, "outer", func() { nested.Run(nested.Now() + 50) })
	nested.At(100, "later", func() {})
	nested.Run(20)
	if nested.Now() != 60 {
		t.Errorf("after a nested Run to 60 inside Run(20), Now = %v, want 60", nested.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(10, "x", func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop should report true for pending event")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.RunAll()
	if fired {
		t.Error("stopped event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(1, "x", func() {})
	e.RunAll()
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestStopEngine(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, "a", func() { count++; e.Stop() })
	e.At(2, "b", func() { count++ })
	e.RunAll()
	if count != 1 {
		t.Errorf("Stop did not halt the loop: count=%d", count)
	}
	// Run can resume afterwards.
	e.RunAll()
	if count != 2 {
		t.Errorf("resume after Stop failed: count=%d", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, "past", func() {})
	})
	e.RunAll()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	e.After(-1, "x", func() {})
}

func TestNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("NaN time should panic")
		}
	}()
	e.At(math.NaN(), "x", func() {})
}

func TestProcessedAndPending(t *testing.T) {
	e := NewEngine()
	e.At(1, "a", func() {})
	e.At(2, "b", func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.RunAll()
	if e.Processed() != 2 || e.Pending() != 0 {
		t.Errorf("Processed=%d Pending=%d", e.Processed(), e.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		var trace []float64
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 5 {
				e.After(1.5, "l", func() { spawn(depth + 1) })
				e.After(0.5, "r", func() { spawn(depth + 1) })
			}
		}
		e.At(0, "root", func() { spawn(0) })
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
