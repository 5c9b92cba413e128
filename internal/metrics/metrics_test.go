package metrics

import (
	"math"
	"testing"
)

func TestAreaIntegration(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(1, 0, 4)
	r.SetAlloc(1, 10, 2) // 4 nodes for 10s = 40
	r.SetAlloc(1, 20, 0) // 2 nodes for 10s = 20
	if got := r.Area(1, 30); got != 60 {
		t.Errorf("Area = %v, want 60", got)
	}
	// Querying later does not change the (zero-alloc) area.
	if got := r.Area(1, 100); got != 60 {
		t.Errorf("Area after idle = %v, want 60", got)
	}
}

func TestAreaPartialQuery(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(1, 0, 10)
	if got := r.Area(1, 5); got != 50 {
		t.Errorf("Area mid-allocation = %v, want 50", got)
	}
	if got := r.Area(1, 7); got != 70 {
		t.Errorf("Area advanced = %v, want 70", got)
	}
}

// TestTimeBackwardsClamped: an out-of-order timestamp must not
// integrate negative area or rewind the track — the stale update's
// allocation takes effect from the already-reached time instead.
func TestTimeBackwardsClamped(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(1, 10, 4)
	r.SetAlloc(1, 5, 2) // stale: clamps to t=10, area unchanged
	if got := r.Area(1, 10); got != 0 {
		t.Errorf("Area at t=10 = %v, want 0 (no negative integration)", got)
	}
	// The stale call still set the allocation: 2 nodes from t=10 on.
	if got := r.Area(1, 20); got != 20 {
		t.Errorf("Area at t=20 = %v, want 20", got)
	}
	// Same guard on the pre-allocation integral.
	r.SetPreAlloc(2, 10, 8)
	r.SetPreAlloc(2, 0, 1)
	if got := r.PreAllocArea(2, 10); got != 0 {
		t.Errorf("PreAllocArea at t=10 = %v, want 0", got)
	}
	if got := r.PreAllocArea(2, 15); got != 5 {
		t.Errorf("PreAllocArea at t=15 = %v, want 5 (1 node × 5 s)", got)
	}
	// A stale Area query must not rewind lastT either.
	r.SetAlloc(3, 10, 1)
	if got := r.Area(3, 5); got != 0 {
		t.Errorf("stale Area query = %v, want 0", got)
	}
	if got := r.Area(3, 20); got != 10 {
		t.Errorf("Area after stale query = %v, want 10", got)
	}
}

func TestPreAllocArea(t *testing.T) {
	r := NewRecorder()
	r.SetPreAlloc(1, 0, 8)
	r.SetAlloc(1, 0, 2)
	if got := r.PreAllocArea(1, 10); got != 80 {
		t.Errorf("PreAllocArea = %v, want 80", got)
	}
	if got := r.Area(1, 10); got != 20 {
		t.Errorf("Area = %v, want 20", got)
	}
}

func TestWaste(t *testing.T) {
	r := NewRecorder()
	r.AddWaste(1, 100)
	r.AddWaste(1, 50)
	r.AddWaste(2, 7)
	if r.Waste(1) != 150 || r.Waste(2) != 7 {
		t.Error("Waste accumulation wrong")
	}
	if r.TotalWaste() != 157 {
		t.Errorf("TotalWaste = %v", r.TotalWaste())
	}
}

func TestNegativeWastePanics(t *testing.T) {
	r := NewRecorder()
	defer func() {
		if recover() == nil {
			t.Error("negative waste should panic")
		}
	}()
	r.AddWaste(1, -1)
}

func TestMaxAllocCurrent(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(1, 0, 4)
	r.SetAlloc(1, 1, 9)
	r.SetAlloc(1, 2, 3)
	if r.MaxAlloc(1) != 9 {
		t.Errorf("MaxAlloc = %d", r.MaxAlloc(1))
	}
	if r.Current(1) != 3 {
		t.Errorf("Current = %d", r.Current(1))
	}
}

func TestTotalAreaAndUsedFraction(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(1, 0, 6)
	r.SetAlloc(2, 0, 4)
	// 10 nodes busy on a 10-node cluster for 100 s, 100 node·s wasted:
	// used fraction = (1000-100)/1000 = 0.9.
	r.AddWaste(2, 100)
	if got := r.TotalArea(100); got != 1000 {
		t.Errorf("TotalArea = %v", got)
	}
	if got := r.UsedFraction(10, 100); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("UsedFraction = %v, want 0.9", got)
	}
}

func TestUsedFractionDegenerate(t *testing.T) {
	r := NewRecorder()
	if r.UsedFraction(0, 100) != 0 || r.UsedFraction(10, 0) != 0 {
		t.Error("degenerate used fraction should be 0")
	}
	// Waste exceeding area clamps at 0.
	r.AddWaste(1, 50)
	if r.UsedFraction(10, 10) != 0 {
		t.Error("used fraction should clamp at 0")
	}
}

func TestAppsAndReport(t *testing.T) {
	r := NewRecorder()
	r.SetAlloc(3, 0, 1)
	r.SetAlloc(1, 0, 2)
	r.SetPreAlloc(1, 0, 5)
	r.AddWaste(3, 9)
	apps := r.Apps()
	if len(apps) != 2 || apps[0] != 1 || apps[1] != 3 {
		t.Fatalf("Apps = %v", apps)
	}
	rep := r.Report(10)
	if len(rep) != 2 {
		t.Fatalf("Report = %v", rep)
	}
	if rep[0].AppID != 1 || rep[0].UsedArea != 20 || rep[0].PreAllocArea != 50 {
		t.Errorf("Report[0] = %+v", rep[0])
	}
	if rep[1].AppID != 3 || rep[1].Waste != 9 || rep[1].UsedArea != 10 {
		t.Errorf("Report[1] = %+v", rep[1])
	}
}

func TestUnknownAppZeroes(t *testing.T) {
	r := NewRecorder()
	if r.Area(42, 10) != 0 || r.Waste(42) != 0 || r.MaxAlloc(42) != 0 {
		t.Error("unknown app should read as zero")
	}
}

func TestAggregateSumsAcrossShards(t *testing.T) {
	// Two shard recorders plus a client-side recorder for waste, the shape
	// internal/federation and the experiment harness use.
	shard0, shard1, client := NewRecorder(), NewRecorder(), NewRecorder()
	shard0.SetAlloc(1, 0, 4) // app 1 holds 4 nodes on shard 0
	shard1.SetAlloc(1, 0, 2) // ... and 2 nodes on shard 1
	shard0.SetAlloc(2, 0, 3)
	shard0.SetPreAlloc(1, 0, 5)
	client.AddWaste(2, 7)

	a := NewAggregate(client, shard0, nil, shard1)
	if got := a.Area(1, 10); got != 60 {
		t.Errorf("Area(1) = %v, want 60", got)
	}
	if got := a.Area(2, 10); got != 30 {
		t.Errorf("Area(2) = %v, want 30", got)
	}
	if got := a.PreAllocArea(1, 10); got != 50 {
		t.Errorf("PreAllocArea(1) = %v, want 50", got)
	}
	if got := a.Waste(2); got != 7 {
		t.Errorf("Waste(2) = %v, want 7", got)
	}
	if got := a.TotalArea(10); got != 90 {
		t.Errorf("TotalArea = %v, want 90", got)
	}
	if got := a.TotalWaste(); got != 7 {
		t.Errorf("TotalWaste = %v, want 7", got)
	}
	// (90 - 7) / (10 nodes × 10 s)
	if got := a.UsedFraction(10, 10); got != 0.83 {
		t.Errorf("UsedFraction = %v, want 0.83", got)
	}
}
