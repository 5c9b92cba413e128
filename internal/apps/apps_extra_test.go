package apps

import (
	"math"
	"testing"

	"coormv2/internal/amr"
	"coormv2/internal/clock"
	"coormv2/internal/core"
)

func TestNEAAnnouncedShrinkReleasesNodes(t *testing.T) {
	// A profile that grows then shrinks: with announced updates the NEA
	// must hand nodes back through the bridge-request mechanism, and the
	// RMS must reclaim the surplus even though the application names no
	// IDs (the bridge expires; the RMS trims).
	prof := make(amr.Profile, 30)
	for i := range prof {
		if i < 15 {
			prof[i] = 50 * 1024 // large: many nodes
		} else {
			prof[i] = 2 * 1024 // small: few nodes
		}
	}
	v := newEnv(300, core.EquiPartitionFilling)
	a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{
		Cluster: c0, Profile: prof, Params: amr.DefaultParams, TargetEff: 0.75,
		PreAllocN: 150, Mode: NEADynamic, AnnounceInterval: 20,
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.RunAll()
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	if !a.Finished() {
		t.Fatalf("did not finish: step %d", a.Step())
	}
	// Peak allocation far above the final allocation proves the shrink
	// path executed; everything returned at the end.
	peakWant := amr.DefaultParams.NodesForEfficiency(50*1024, 0.75)
	if got := v.rec.MaxAlloc(1); got < peakWant/2 {
		t.Errorf("peak alloc = %d, expected to approach %d", got, peakWant)
	}
	if got := v.rec.Current(1); got != 0 {
		t.Errorf("still holding %d nodes", got)
	}
}

func TestPSADeclinesShortWindows(t *testing.T) {
	// The §4 selection rule directly: with a visible drop sooner than
	// d_task, the PSA must not claim the nodes above the post-drop level.
	v := newEnv(20, core.EquiPartitionFilling)
	// An evolving app that will take 15 nodes at t≈200 — visible from the
	// start via the NEXT chain.
	a := NewPredictableEvolving(clock.SimClock{E: v.e}, c0, []Segment{
		{N: 1, Duration: 200}, {N: 15, Duration: 500},
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(5)

	// d_task = 1000 > 195 s window: only the 5 always-free nodes qualify.
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 1000})
	v.connect(p, p)
	v.e.Run(50)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if got := p.HeldNodes(); got != 5 {
		// During the announced 15-node segment (segment 1 has ended by
		// then) availability bottoms out at 20 − 15 = 5: only those 5
		// nodes have a window long enough for a 1000 s task.
		t.Errorf("PSA holds %d, want 5 (declines the short window)", got)
	}
	if p.Waste() != 0 {
		t.Errorf("waste = %v, want 0 (nothing was claimed that gets killed)", p.Waste())
	}
}

func TestPSAIgnoreWindowsClaimsAndPays(t *testing.T) {
	// The ablation knob: without the selection rule the PSA claims the
	// doomed nodes and pays with killed tasks.
	v := newEnv(20, core.EquiPartitionFilling)
	a := NewPredictableEvolving(clock.SimClock{E: v.e}, c0, []Segment{
		{N: 1, Duration: 200}, {N: 15, Duration: 500},
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(5)

	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{
		Cluster: c0, TaskDuration: 1000, IgnoreWindows: true, NoGraceful: true,
	})
	v.connect(p, p)
	v.e.Run(50)
	if got := p.HeldNodes(); got != 19 {
		t.Fatalf("ignoring windows should claim everything: held %d", got)
	}
	v.e.Run(400) // the evolving app's 15-node segment starts at ≈200
	if p.Waste() == 0 {
		t.Error("claiming doomed nodes must cost killed tasks")
	}
}

func TestMalleableShrinksWhenViewDrops(t *testing.T) {
	v := newEnv(20, core.EquiPartitionFilling)
	m := NewMalleable(clock.SimClock{E: v.e}, c0, 2, 1e6, nil)
	v.connect(m, m)
	if err := m.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(5)
	if got := len(m.ExtraIDs); got != 18 {
		t.Fatalf("extra = %d, want 18", got)
	}
	// A rigid job takes 10 nodes: the malleable part must shrink to 8.
	r := NewRigid(clock.SimClock{E: v.e}, c0, 10, 500)
	v.connect(r, r)
	if err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(20)
	if !r.Started {
		t.Fatal("rigid job blocked")
	}
	if got := len(m.ExtraIDs); got != 8 {
		t.Errorf("extra after revocation = %d, want 8", got)
	}
	if killed, why := m.Killed(); killed {
		t.Fatalf("cooperative malleable app killed: %s", why)
	}
	// When the rigid job ends, the malleable part grows back.
	v.e.Run(600)
	if got := len(m.ExtraIDs); got != 18 {
		t.Errorf("extra after rigid ended = %d, want 18 again", got)
	}
}

func TestMoldableReselectsOnViewChange(t *testing.T) {
	// The moldable app picks 2 nodes (only 2 free); when the blocker
	// finishes early, a fresh view triggers re-selection to more nodes.
	v := newEnv(10, core.EquiPartitionFilling)
	blocker := NewRigid(clock.SimClock{E: v.e}, c0, 8, 60)
	v.connect(blocker, blocker)
	if err := blocker.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(2)

	mold := NewMoldable(clock.SimClock{E: v.e}, c0, 10, func(n int) float64 { return 1000 / float64(n) })
	v.connect(mold, mold)
	v.e.Run(5)
	first := mold.ChosenN
	if first == 0 {
		t.Fatal("no initial selection")
	}
	// 1000/2=500s on 2 nodes starting now (end≈505) vs waiting 58s for 10
	// nodes (end≈158): it should have chosen to wait for all 10.
	if first != 10 {
		t.Errorf("initial choice = %d, want 10 (waiting wins)", first)
	}
	v.e.Run(200)
	if !mold.Started {
		t.Fatal("moldable app never started")
	}
	if len(mold.StartIDs) != mold.ChosenN {
		t.Errorf("allocated %d, chose %d", len(mold.StartIDs), mold.ChosenN)
	}
}

func TestPSAZeroAvailability(t *testing.T) {
	// A PSA on a cluster fully held non-preemptibly neither requests nor
	// errors; when resources free up it claims them.
	v := newEnv(6, core.EquiPartitionFilling)
	r := NewRigid(clock.SimClock{E: v.e}, c0, 6, 100)
	v.connect(r, r)
	if err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(5)
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 10})
	v.connect(p, p)
	v.e.Run(50)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	// Note: the rigid job ends at t=105; with a 10 s task the window
	// [now, 105) may admit tasks for the last stretch, but at t=50 the
	// remaining window is 55 s >= 10 s... the view shows the expiry, so
	// the PSA may legitimately claim. Just require consistency:
	held := p.HeldNodes()
	if held != 0 {
		t.Logf("PSA claimed %d nodes against the job-end window (legitimate)", held)
	}
	v.e.Run(200)
	if got := p.HeldNodes(); got != 6 {
		t.Errorf("after the rigid job ended the PSA should hold all 6, has %d", got)
	}
	if p.Waste() != 0 {
		t.Errorf("waste = %v, want 0", p.Waste())
	}
}

func TestNEAErrOnBadSubmit(t *testing.T) {
	v := newEnv(10, core.EquiPartitionFilling)
	a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{Cluster: c0, Profile: nil, Params: amr.DefaultParams, PreAllocN: 5})
	v.connect(a, a)
	if err := a.Submit(); err == nil {
		t.Error("empty profile should error")
	}
	b := NewNEA(clock.SimClock{E: v.e}, NEAConfig{Cluster: c0, Profile: amr.Profile{1}, Params: amr.DefaultParams})
	v.connect(b, b)
	if err := b.Submit(); err == nil {
		t.Error("zero pre-allocation should error")
	}
	_ = math.Inf(1)
}

func TestPSACompletesTasksOnHeldNodes(t *testing.T) {
	v := newEnv(12, core.EquiPartitionFilling)
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 30})
	v.connect(p, p)
	v.e.Run(100)
	if p.HeldNodes() != 12 {
		t.Fatalf("held = %d", p.HeldNodes())
	}
	done := p.CompletedTasks()
	if done < 12*2 {
		t.Errorf("completed = %d, want >= 24 after 3 task durations", done)
	}
}

func TestPSAOnKillStopsActivity(t *testing.T) {
	v := newEnv(8, core.EquiPartitionFilling)
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 30})
	v.connect(p, p)
	v.e.Run(10)
	p.OnKill("test kill")
	if killed, why := p.Killed(); !killed || why != "test kill" {
		t.Errorf("kill state = %v %q", killed, why)
	}
	// Further view pushes are ignored without panicking.
	p.OnViews(nil, nil)
}
