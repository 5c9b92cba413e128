package core

import (
	"math"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

func prep(rs *request.Set) {
	// toView must run first to set Fixed flags.
	toView(rs, nil, 0)
}

func TestFitFreeRequestFirstHole(t *testing.T) {
	rs := request.NewSet()
	r := newReq(1, 4, 100, request.NonPreempt, request.Free, nil)
	rs.Add(r)
	prep(rs)
	// 2 nodes until t=50, then 8.
	avail := view.New().AddRect("c0", 0, 50, 2).AddRect("c0", 50, math.Inf(1), 8)
	vo := fit(rs, avail, 0)
	if r.ScheduledAt != 50 {
		t.Errorf("ScheduledAt = %v, want 50", r.ScheduledAt)
	}
	if vo.Get("c0").Value(60) != 4 || vo.Get("c0").Value(40) != 0 {
		t.Errorf("occupancy view wrong: %v", vo)
	}
}

func TestFitRespectsT0(t *testing.T) {
	rs := request.NewSet()
	r := newReq(1, 1, 10, request.NonPreempt, request.Free, nil)
	rs.Add(r)
	prep(rs)
	avail := view.Constant(10, "c0")
	fit(rs, avail, 42)
	if r.ScheduledAt != 42 {
		t.Errorf("ScheduledAt = %v, want 42 (t0)", r.ScheduledAt)
	}
}

// TestFitFreePreemptHonoursFloor: a FREE preemptible request is shrunk,
// never delayed, but a NotBefore floor above t0 still sets its start
// (rms.Session.SetNotBefore accepts a floor on any unstarted request).
func TestFitFreePreemptHonoursFloor(t *testing.T) {
	rs := request.NewSet()
	r := newReq(1, 4, math.Inf(1), request.Preempt, request.Free, nil)
	r.NotBefore = 30
	rs.Add(r)
	prep(rs)
	fit(rs, view.Constant(10, "c0"), 5)
	if r.ScheduledAt != 30 || r.NAlloc != 4 {
		t.Errorf("ScheduledAt = %v, NAlloc = %d; want the floor 30 and all 4 nodes", r.ScheduledAt, r.NAlloc)
	}
}

func TestFitUnschedulableGoesToInfinity(t *testing.T) {
	rs := request.NewSet()
	r := newReq(1, 100, 10, request.NonPreempt, request.Free, nil)
	rs.Add(r)
	prep(rs)
	avail := view.Constant(10, "c0")
	vo := fit(rs, avail, 0)
	if !math.IsInf(r.ScheduledAt, 1) {
		t.Errorf("ScheduledAt = %v, want +Inf", r.ScheduledAt)
	}
	if !vo.Get("c0").IsZero() {
		t.Error("unschedulable request must not occupy resources")
	}
}

func TestFitCoallocSameStart(t *testing.T) {
	rs := request.NewSet()
	a := newReq(1, 4, 100, request.NonPreempt, request.Free, nil)
	b := newReq(2, 2, 100, request.NonPreempt, request.Coalloc, a)
	rs.Add(a)
	rs.Add(b)
	prep(rs)
	avail := view.Constant(10, "c0")
	fit(rs, avail, 5)
	if a.ScheduledAt != 5 || b.ScheduledAt != 5 {
		t.Errorf("COALLOC pair scheduled at %v / %v, want both 5", a.ScheduledAt, b.ScheduledAt)
	}
}

func TestFitCoallocDelaysParent(t *testing.T) {
	// The child needs 8 nodes which are only available from t=100; the
	// parent (needing 2) must be delayed to start together (lines 22–24).
	rs := request.NewSet()
	a := newReq(1, 2, 50, request.NonPreempt, request.Free, nil)
	b := newReq(2, 8, 50, request.NonPreempt, request.Coalloc, a)
	rs.Add(a)
	rs.Add(b)
	prep(rs)
	avail := view.New().AddRect("c0", 0, 100, 4).AddRect("c0", 100, math.Inf(1), 10)
	fit(rs, avail, 0)
	if b.ScheduledAt != 100 {
		t.Errorf("child ScheduledAt = %v, want 100", b.ScheduledAt)
	}
	if a.ScheduledAt != 100 {
		t.Errorf("parent should be delayed to 100, got %v", a.ScheduledAt)
	}
}

func TestFitNextFollowsParent(t *testing.T) {
	rs := request.NewSet()
	a := newReq(1, 4, 60, request.NonPreempt, request.Free, nil)
	b := newReq(2, 6, 40, request.NonPreempt, request.Next, a)
	rs.Add(a)
	rs.Add(b)
	prep(rs)
	avail := view.Constant(10, "c0")
	fit(rs, avail, 0)
	if a.ScheduledAt != 0 {
		t.Errorf("parent at %v, want 0", a.ScheduledAt)
	}
	if b.ScheduledAt != 60 {
		t.Errorf("NEXT child at %v, want 60 (parent end)", b.ScheduledAt)
	}
}

func TestFitNextDelaysParentWhenGapWouldForm(t *testing.T) {
	// Child needs capacity that only exists from t=200. For the child to
	// start exactly when the parent ends, the parent must start at 200-60.
	rs := request.NewSet()
	a := newReq(1, 2, 60, request.NonPreempt, request.Free, nil)
	b := newReq(2, 8, 40, request.NonPreempt, request.Next, a)
	rs.Add(a)
	rs.Add(b)
	prep(rs)
	avail := view.New().AddRect("c0", 0, 200, 4).AddRect("c0", 200, math.Inf(1), 10)
	fit(rs, avail, 0)
	if b.ScheduledAt != 200 {
		t.Errorf("child at %v, want 200", b.ScheduledAt)
	}
	if a.ScheduledAt != 140 {
		t.Errorf("parent at %v, want 140 (delayed so child follows)", a.ScheduledAt)
	}
}

func TestFitNextOnFixedParentNoLivelock(t *testing.T) {
	// The parent already started; its NEXT child cannot start exactly at the
	// parent's end because resources are missing. The paper's pseudo-code
	// would ping-pong forever; we accept the later start (documented
	// deviation).
	rs := request.NewSet()
	a := newReq(1, 4, 60, request.NonPreempt, request.Free, nil)
	a.StartedAt = 0
	b := newReq(2, 8, 40, request.NonPreempt, request.Next, a)
	rs.Add(a)
	rs.Add(b)
	toView(rs, nil, 0)
	if !b.Fixed {
		// b is fixed by toView (child of started request); fit must leave it.
		t.Fatal("NEXT child of started parent should be fixed by toView")
	}
	avail := view.New().AddRect("c0", 0, 500, 2)
	vo := fit(rs, avail, 0)
	// b stays fixed at parent's end, regardless of availability: updates
	// inside a pre-allocation are guaranteed, and validation is the RMS's
	// job, not fit's.
	if b.ScheduledAt != 60 {
		t.Errorf("fixed child moved to %v", b.ScheduledAt)
	}
	_ = vo
}

func TestFitPreemptCoallocSnapsAndShrinks(t *testing.T) {
	// The malleable-application pattern of §4: a preemptible request
	// COALLOCated with a non-preemptible rmin snaps to its start and is
	// shrunk to the available resources (Alg. 2 lines 17–19).
	rs := request.NewSet()
	rmin := newReq(1, 4, 100, request.NonPreempt, request.Free, nil)
	rmin.ScheduledAt = 10
	rmin.Fixed = true // scheduled by the ¬P pass of Algorithm 4
	extra := newReq(2, 20, 100, request.Preempt, request.Coalloc, rmin)
	rs.Add(extra) // note: rmin is NOT in this set (it lives in R_¬P)
	for _, r := range rs.All() {
		r.Fixed = false
	}
	avail := view.New().AddRect("c0", 0, math.Inf(1), 6)
	fit(rs, avail, 0)
	if extra.ScheduledAt != 10 {
		t.Errorf("preempt COALLOC at %v, want 10 (snap to parent)", extra.ScheduledAt)
	}
	if extra.NAlloc != 6 {
		t.Errorf("NAlloc = %d, want 6 (shrunk to availability)", extra.NAlloc)
	}
}

func TestFitPreemptNextShrinks(t *testing.T) {
	rs := request.NewSet()
	a := newReq(1, 5, 50, request.Preempt, request.Free, nil)
	b := newReq(2, 9, 50, request.Preempt, request.Next, a)
	rs.Add(a)
	rs.Add(b)
	prep(rs)
	avail := view.New().AddRect("c0", 0, 50, 5).AddRect("c0", 50, 100, 3)
	fit(rs, avail, 0)
	if a.ScheduledAt != 0 || b.ScheduledAt != 50 {
		t.Errorf("chain scheduled at %v/%v", a.ScheduledAt, b.ScheduledAt)
	}
	if b.NAlloc != 3 {
		t.Errorf("preempt NEXT NAlloc = %d, want 3 (shrunk, not delayed)", b.NAlloc)
	}
}

func TestFitParentOutsideSetNotDelayed(t *testing.T) {
	// A COALLOC request whose parent lives in another set must not try to
	// move the parent.
	outside := newReq(99, 4, 100, request.NonPreempt, request.Free, nil)
	outside.ScheduledAt = 10
	outside.Fixed = true
	rs := request.NewSet()
	b := newReq(2, 8, 50, request.NonPreempt, request.Coalloc, outside)
	rs.Add(b)
	for _, r := range rs.All() {
		r.Fixed = false
	}
	avail := view.New().AddRect("c0", 100, math.Inf(1), 10)
	fit(rs, avail, 0)
	if b.ScheduledAt != 100 {
		t.Errorf("child at %v, want 100 (cannot co-start, parent immovable)", b.ScheduledAt)
	}
	if outside.ScheduledAt != 10 {
		t.Error("fit moved a request from another set")
	}
}

func TestFitSkipsFixedRequests(t *testing.T) {
	rs := request.NewSet()
	a := newReq(1, 4, 100, request.NonPreempt, request.Free, nil)
	a.StartedAt = 20
	b := newReq(2, 2, 50, request.NonPreempt, request.Free, nil)
	rs.Add(a)
	rs.Add(b)
	toView(rs, nil, 25)
	avail := view.Constant(10, "c0")
	vo := fit(rs, avail, 25)
	if a.ScheduledAt != 20 {
		t.Error("fit must not move fixed requests")
	}
	if b.ScheduledAt != 25 {
		t.Errorf("pending request at %v, want 25", b.ScheduledAt)
	}
	// The occupancy view contains only non-fixed requests.
	if vo.Get("c0").Value(26) != 2 {
		t.Errorf("occupancy of pending = %d, want 2", vo.Get("c0").Value(26))
	}
}

func TestFitInfiniteDurationRequest(t *testing.T) {
	rs := request.NewSet()
	r := newReq(1, 3, math.Inf(1), request.Preempt, request.Free, nil)
	rs.Add(r)
	prep(rs)
	avail := view.Constant(5, "c0")
	vo := fit(rs, avail, 7)
	if r.ScheduledAt != 7 {
		t.Errorf("infinite request at %v, want 7", r.ScheduledAt)
	}
	if vo.Get("c0").Value(1e12) != 3 {
		t.Error("infinite occupancy should extend forever")
	}
}
