package request

import (
	"math"
	"strings"
	"testing"
)

func mk(id ID, how Relation, parent *Request) *Request {
	return New(id, 1, "c0", 4, 100, NonPreempt, how, parent)
}

func TestTypeString(t *testing.T) {
	if PreAlloc.String() != "PA" || NonPreempt.String() != "¬P" || Preempt.String() != "P" {
		t.Error("Type strings wrong")
	}
	if !strings.Contains(Type(9).String(), "9") {
		t.Error("unknown type string")
	}
}

func TestRelationString(t *testing.T) {
	if Free.String() != "FREE" || Coalloc.String() != "COALLOC" || Next.String() != "NEXT" {
		t.Error("Relation strings wrong")
	}
	if !strings.Contains(Relation(9).String(), "9") {
		t.Error("unknown relation string")
	}
}

func TestNewDefaults(t *testing.T) {
	r := mk(1, Free, nil)
	if r.Started() {
		t.Error("new request should not be started (StartedAt NaN)")
	}
	if !math.IsInf(r.ScheduledAt, 1) {
		t.Error("new request should be scheduled at infinity until placed")
	}
	if r.Finished {
		t.Error("new request should not be finished")
	}
}

func TestStartedActiveEnded(t *testing.T) {
	r := mk(1, Free, nil)
	if r.Active() || r.Ended(0) {
		t.Error("unstarted request cannot be active or ended")
	}
	r.StartedAt = 10
	if !r.Started() || !r.Active() {
		t.Error("started request should be active")
	}
	if r.End() != 110 {
		t.Errorf("End = %v, want 110", r.End())
	}
	if r.Ended(50) {
		t.Error("should not be ended mid-allocation")
	}
	if !r.Ended(110) {
		t.Error("should be ended at StartedAt+Duration")
	}
	r.Finished = true
	if r.Active() || !r.Ended(50) {
		t.Error("finished request is ended regardless of time")
	}
}

func TestEndUsesScheduledWhenNotStarted(t *testing.T) {
	r := mk(1, Free, nil)
	r.ScheduledAt = 42
	if r.End() != 142 {
		t.Errorf("End = %v, want 142", r.End())
	}
}

func TestValidate(t *testing.T) {
	ok := mk(1, Free, nil)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	infDur := mk(2, Free, nil)
	infDur.Duration = math.Inf(1)
	if err := infDur.Validate(); err != nil {
		t.Errorf("infinite duration should be allowed (PSA requests): %v", err)
	}

	cases := map[string]func(*Request){
		"zero nodes":     func(r *Request) { r.N = 0 },
		"negative nodes": func(r *Request) { r.N = -3 },
		"zero duration":  func(r *Request) { r.Duration = 0 },
		"nan duration":   func(r *Request) { r.Duration = math.NaN() },
		"empty cluster":  func(r *Request) { r.Cluster = "" },
		"orphan coalloc": func(r *Request) { r.RelatedHow = Coalloc; r.RelatedTo = nil },
		"orphan next":    func(r *Request) { r.RelatedHow = Next; r.RelatedTo = nil },
		"self reference": func(r *Request) { r.RelatedHow = Next; r.RelatedTo = r },
		"cross-app link": func(r *Request) { p := mk(9, Free, nil); p.AppID = 99; r.RelatedHow = Next; r.RelatedTo = p },
	}
	for name, mutate := range cases {
		r := mk(3, Free, nil)
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestString(t *testing.T) {
	p := mk(1, Free, nil)
	c := mk(2, Next, p)
	s := c.String()
	for _, want := range []string{"NEXT", "¬P", "n=4", "app=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSetAddRemoveContains(t *testing.T) {
	s := NewSet()
	a, b := mk(1, Free, nil), mk(2, Free, nil)
	s.Add(a)
	s.Add(b)
	if s.Len() != 2 || !s.Contains(a) || !s.Contains(b) {
		t.Fatal("Add/Contains broken")
	}
	if !s.Remove(a) {
		t.Fatal("Remove returned false for member")
	}
	if s.Remove(a) {
		t.Fatal("Remove returned true for non-member")
	}
	if s.Len() != 1 || s.Contains(a) {
		t.Fatal("Remove did not remove")
	}
}

func TestSetByID(t *testing.T) {
	s := NewSet()
	a := mk(7, Free, nil)
	s.Add(a)
	if s.ByID(7) != a {
		t.Error("ByID failed")
	}
	if s.ByID(8) != nil {
		t.Error("ByID should return nil for missing")
	}
}

func TestRootsAndChildren(t *testing.T) {
	// Tree per Fig. 12: root <- NEXT child <- COALLOC grandchild; plus an
	// independent root, plus a request related to something outside the set.
	s := NewSet()
	root := mk(1, Free, nil)
	child := mk(2, Next, root)
	grand := mk(3, Coalloc, child)
	lone := mk(4, Free, nil)
	outside := mk(99, Free, nil) // never added to the set
	crossRef := mk(5, Next, outside)
	for _, r := range []*Request{root, child, grand, lone, crossRef} {
		s.Add(r)
	}

	wantRoots := map[ID]bool{1: true, 4: true, 5: true}
	for _, r := range s.All() {
		if s.IsRoot(r) != wantRoots[r.ID] {
			t.Errorf("IsRoot(%v) = %t, want %t", r, s.IsRoot(r), wantRoots[r.ID])
		}
	}

	children := func(r *Request) (out []*Request) {
		s.EachChild(r, func(q *Request) { out = append(out, q) })
		return out
	}
	if ch := children(root); len(ch) != 1 || ch[0] != child {
		t.Errorf("children of root = %v", ch)
	}
	if ch := children(child); len(ch) != 1 || ch[0] != grand {
		t.Errorf("children of child = %v", ch)
	}
	if len(children(grand)) != 0 {
		t.Error("leaf should have no children")
	}
}

func TestGC(t *testing.T) {
	s := NewSet()
	old := mk(1, Free, nil)
	old.StartedAt = 0
	old.Duration = 10 // ends at 10
	live := mk(2, Free, nil)
	live.StartedAt = 5
	live.Duration = 100
	pendingChild := mk(3, Next, old) // keeps old alive
	s.Add(old)
	s.Add(live)
	s.Add(pendingChild)

	s.GC(50, nil)
	if !s.Contains(old) {
		t.Fatal("GC removed a request that a pending child references")
	}

	// Once the child starts and ends, both can go.
	pendingChild.StartedAt = 10
	pendingChild.Duration = 5 // ends at 15
	s.GC(50, nil)
	if s.Contains(old) || s.Contains(pendingChild) {
		t.Error("GC should remove finished chain")
	}
	if !s.Contains(live) {
		t.Error("GC removed a live request")
	}
}

func TestGCDoneRequests(t *testing.T) {
	s := NewSet()
	r := mk(1, Free, nil)
	r.StartedAt = 0
	r.Finished = true
	s.Add(r)
	s.GC(1, nil)
	if s.Len() != 0 {
		t.Error("finished request should be collected")
	}
}
