package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// dynamicFIFO is FIFO order and admit-all behind a Stable() == false
// policy: it sends every round through the dynamic machinery (policy
// ordering buffer, per-app admission calls, the remembered-sequence
// comparison) while demanding the exact same schedule as the stable fast
// path. The differential below pins the two paths byte-identical.
type dynamicFIFO struct{}

func (dynamicFIFO) Name() string { return "dynamic-fifo" }

func (dynamicFIFO) Stable() bool { return false }

func (dynamicFIFO) Order(_ RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	return append(buf, apps...)
}

func (dynamicFIFO) Admit(RoundInfo, *AppState) bool { return true }

// TestPolicyPathMatchesFIFO is the FIFOPolicy differential required by the
// policy redesign: the policy-dispatched dynamic path (ordering buffer,
// admission calls, chain keyed on the sequence) must produce
// byte-identical views, start lists, and request attributes to the default
// stable FIFO path across the full randomized churn generator.
func TestPolicyPathMatchesFIFO(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		fifo := newDiffMirror(clusters, true)
		dyn := newDiffMirror(clusters, true)
		dyn.s.SetSchedulingPolicy(dynamicFIFO{})
		runDiffChurn(t, seed, fifo, dyn)
	}
}

// shiftingPolicy is a reordering policy whose answer is a function of
// RoundInfo.Now alone, so two mirrored schedulers see the same one: it
// holds an order for a few rounds (a phase lasts 40 time units, a churn
// round advances 7.5 on average), then reverses it, then swaps only the
// last two applications (a suffix perturbation), then rotates by one.
// With flipAdmit it also refuses a third of the applications, a different
// third every 25 time units — so some rounds change only admissions.
type shiftingPolicy struct{ flipAdmit bool }

func (shiftingPolicy) Name() string { return "shifting" }
func (shiftingPolicy) Stable() bool { return false }

func (shiftingPolicy) Order(info RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	buf = append(buf, apps...)
	n := len(buf)
	switch int(info.Now/40) % 4 {
	case 1:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
	case 2:
		if n >= 2 {
			buf[n-2], buf[n-1] = buf[n-1], buf[n-2]
		}
	case 3:
		if n >= 2 {
			first := buf[0]
			copy(buf, buf[1:])
			buf[n-1] = first
		}
	}
	return buf
}

func (p shiftingPolicy) Admit(info RoundInfo, a *AppState) bool {
	return !p.flipAdmit || (int(info.Now/25)+a.ID)%3 != 0
}

// TestDynamicPolicyIncrementalMatchesFull is the differential behind the
// sequence-keyed CBF chain: under a policy that reorders and re-admits
// over time, the incremental scheduler must stay byte-identical to the
// from-scratch oracle across the full randomized churn generator. Leaving
// the admission bit out of the key fails it: a re-admitted application
// changes the running availability of everyone after it.
func TestDynamicPolicyIncrementalMatchesFull(t *testing.T) {
	for _, p := range []shiftingPolicy{{flipAdmit: false}, {flipAdmit: true}} {
		t.Run(fmt.Sprintf("flipAdmit=%v", p.flipAdmit), func(t *testing.T) {
			var reused int64
			for seed := int64(1); seed <= 40; seed++ {
				clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
				inc := newDiffMirror(clusters, true)
				full := newDiffMirror(clusters, false)
				inc.s.SetSchedulingPolicy(p)
				full.s.SetSchedulingPolicy(p)
				runDiffChurn(t, seed, inc, full)
				if got := full.s.Stats().CBFReused; got != 0 {
					t.Fatalf("seed %d: the oracle reused %d CBF steps", seed, got)
				}
				reused += inc.s.Stats().CBFReused
			}
			if reused == 0 {
				t.Error("no CBF step was ever reused — the differential compared two full paths")
			}
		})
	}
}

// TestPolicySwapMidRunMatchesFull swaps the policy twice in the middle of
// the churn — disruptive, back to the default, disruptive again — on both
// mirrors. The oracle has no cache to carry across a swap, so agreement
// means a swap leaves nothing of the previous policy's rounds behind: the
// caches are warm on both sides of it and the default is restored exactly.
func TestPolicySwapMidRunMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		inc := newDiffMirror(clusters, true)
		full := newDiffMirror(clusters, false)
		for _, m := range []*diffMirror{inc, full} {
			m.s.SetSchedulingPolicy(shiftingPolicy{flipAdmit: true})
			m.onRound = func(round int) {
				switch round {
				case 40:
					m.s.SetSchedulingPolicy(nil)
				case 80:
					m.s.SetSchedulingPolicy(shiftingPolicy{flipAdmit: true})
				}
			}
		}
		runDiffChurn(t, seed, inc, full)
	}
}

// TestRememberedSequenceUnpinned checks that the previous round's policy
// answer never keeps a removed application alive: RemoveApp and a policy
// swap drop it at once, not at the next round.
func TestRememberedSequenceUnpinned(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	s.SetSchedulingPolicy(dynamicFIFO{})
	for i := 1; i <= 4; i++ {
		s.AddApp(i, float64(i))
	}
	dropped := func(after string) {
		t.Helper()
		for _, slot := range s.lastSeq[:cap(s.lastSeq)] {
			if slot.app != nil {
				t.Fatalf("after %s the remembered sequence still holds application %d", after, slot.app.ID)
			}
		}
	}
	s.Schedule(0)
	if len(s.lastSeq) != 4 {
		t.Fatalf("a dynamic round remembered %d positions, want 4", len(s.lastSeq))
	}
	s.RemoveApp(2)
	dropped("RemoveApp")
	s.Schedule(1)
	s.SetSchedulingPolicy(nil)
	dropped("SetSchedulingPolicy")
	s.Schedule(2)
	dropped("a stable round")
}

// reverseAdmitOne reverses the round order and admits everything except
// one chosen application — a deliberately disruptive policy used to check
// that disabling it restores the default exactly.
type reverseAdmitOne struct{ blocked int }

func (p reverseAdmitOne) Name() string { return "reverse" }
func (p reverseAdmitOne) Stable() bool { return false }
func (p reverseAdmitOne) Order(_ RoundInfo, apps []*AppState, buf []*AppState) []*AppState {
	for i := len(apps) - 1; i >= 0; i-- {
		buf = append(buf, apps[i])
	}
	return buf
}
func (p reverseAdmitOne) Admit(_ RoundInfo, a *AppState) bool { return a.ID != p.blocked }

// TestAdmissionGating checks the non-admitted contract: pending requests
// stay unscheduled (ScheduledAt = +Inf) and never start, started work
// keeps counting, and re-admission schedules the backlog again.
func TestAdmissionGating(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	a := s.AddApp(1, 0)
	b := s.AddApp(2, 1)
	ra := request.New(1, 1, c0, 4, 100, request.NonPreempt, request.Free, nil)
	a.NP.Add(ra)
	rb := request.New(2, 2, c0, 4, 100, request.NonPreempt, request.Free, nil)
	b.NP.Add(rb)

	s.SetSchedulingPolicy(reverseAdmitOne{blocked: 2})
	s.Schedule(0)
	out := s.Schedule(0) // same answer again: this round runs on warm caches
	if !math.IsInf(rb.ScheduledAt, 1) || rb.NAlloc != 0 {
		t.Fatalf("blocked app's request scheduled at %v alloc %d, want unscheduled", rb.ScheduledAt, rb.NAlloc)
	}
	if len(out.ToStart) != 1 || out.ToStart[0] != ra {
		t.Fatalf("ToStart = %v, want only the admitted app's request", out.ToStart)
	}
	if b.Admitted() || !a.Admitted() {
		t.Fatalf("admission flags: a=%v b=%v", a.Admitted(), b.Admitted())
	}
	// The blocked app still sees the free space: it is first in the
	// reversed order, so the admitted app has not consumed anything yet
	// at its point in the round.
	if v := out.NonPreemptViews[2]; v.Get(c0).MinOn(0, 100) != 8 {
		t.Fatalf("blocked app's view = %v, want the full 8 free nodes", v)
	}

	ra.StartedAt = 0
	s.MarkAppDirty(1)

	// Re-admitting schedules the backlog behind the started work.
	s.SetSchedulingPolicy(nil) // back to FIFO
	s.Schedule(1)
	s.Schedule(1) // and warm again on this side of the swap
	if !a.Admitted() && b.Admitted() {
		t.Fatal("stable policy must not rewrite admission flags")
	}
	if math.IsInf(rb.ScheduledAt, 1) || rb.NAlloc != 4 {
		t.Fatalf("re-admitted request scheduled at %v alloc %d, want scheduled", rb.ScheduledAt, rb.NAlloc)
	}
}

// TestRemoveAppAllocs pins the satellite fix: removing an application is
// O(1) swap-delete with zero heap allocations.
func TestRemoveAppAllocs(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	const n = 1000
	for i := 0; i < n; i++ {
		s.AddApp(i, float64(i))
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		s.RemoveApp(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("RemoveApp allocates %.1f times per call, want 0", allocs)
	}
}

// TestRemoveAppOrder checks that swap-delete plus lazy re-sort preserves
// the connection-order contract of Apps and the scheduling round.
func TestRemoveAppOrder(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	for i := 1; i <= 5; i++ {
		s.AddApp(i, float64(i))
	}
	s.RemoveApp(2) // middle removal swaps the tail into the hole
	s.RemoveApp(5) // tail removal
	want := []int{1, 3, 4}
	got := s.Apps()
	if len(got) != len(want) {
		t.Fatalf("Apps len = %d, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.ID != want[i] {
			t.Fatalf("Apps[%d] = %d, want %d", i, a.ID, want[i])
		}
		if a.idx != i {
			t.Fatalf("Apps[%d].idx = %d, want %d", i, a.idx, i)
		}
	}
	if s.RemoveApp(2) != nil {
		t.Fatal("double remove must return nil")
	}
	// Interleaved add/remove keeps order: a re-added app with an earlier
	// connection time sorts back to the front.
	s.AddApp(9, 0.5)
	if apps := s.Apps(); apps[0].ID != 9 {
		t.Fatalf("Apps[0] = %d, want 9", apps[0].ID)
	}
}

// TestRemoveAppTeardownLinear is the complexity regression: tearing down a
// large fleet must not be quadratic. 200k removals of the old linear-scan
// implementation would perform ~2·10¹⁰ pointer comparisons — minutes of
// work — while swap-delete finishes in well under a second.
func TestRemoveAppTeardownLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewScheduler(map[view.ClusterID]int{c0: 8})
	const n = 200_000
	for i := 0; i < n; i++ {
		s.AddApp(i, float64(i))
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			s.RemoveApp(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("teardown of 200k apps took >20s — removal is superlinear again")
	}
	if len(s.Apps()) != 0 {
		t.Fatal("apps left after teardown")
	}
}
