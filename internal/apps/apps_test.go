package apps

import (
	"math"
	"testing"

	"coormv2/internal/amr"
	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/metrics"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/stats"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

const c0 = view.ClusterID("c0")

// Compile-time check: the in-process RMS session satisfies apps.Session.
var _ Session = (*rms.Session)(nil)

type env struct {
	e   *sim.Engine
	srv *rms.Server
	rec *metrics.Recorder
}

func newEnv(nodes int, policy core.PreemptPolicy) *env {
	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	srv := rms.NewServer(rms.Config{
		Clusters:        map[view.ClusterID]int{c0: nodes},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Policy:          policy,
		Metrics:         rec,
	})
	return &env{e: e, srv: srv, rec: rec}
}

// connect wires an application to the server.
func (v *env) connect(h rms.AppHandler, b interface{ Attach(Session) }) *rms.Session {
	sess := v.srv.Connect(h)
	b.Attach(sess)
	return sess
}

func TestRigidApp(t *testing.T) {
	v := newEnv(10, core.EquiPartitionFilling)
	r := NewRigid(clock.SimClock{E: v.e}, c0, 4, 100)
	v.connect(r, r)
	if err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.RunAll()
	if !r.Started || !r.Ended {
		t.Fatalf("rigid lifecycle incomplete: started=%v ended=%v", r.Started, r.Ended)
	}
	if len(r.NodeIDs) != 4 {
		t.Errorf("node IDs = %v", r.NodeIDs)
	}
	if r.EndTime-r.StartTime != 100 {
		t.Errorf("runtime = %v, want 100", r.EndTime-r.StartTime)
	}
}

func TestMoldableAppPicksEarliestCompletion(t *testing.T) {
	v := newEnv(10, core.EquiPartitionFilling)
	// Occupy 8 nodes for a long time so only 2 are free now.
	blocker := NewRigid(clock.SimClock{E: v.e}, c0, 8, 500)
	v.connect(blocker, blocker)
	if err := blocker.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(2)

	// Perfect scaling, 100 node·seconds of work: on 2 nodes it takes 50 s
	// finishing at ~52; waiting for 10 nodes means starting at 500.
	mold := NewMoldable(clock.SimClock{E: v.e}, c0, 10, func(n int) float64 { return 100 / float64(n) })
	v.connect(mold, mold)
	v.e.Run(60)
	if !mold.Started {
		t.Fatal("moldable app did not start")
	}
	if mold.ChosenN != 2 {
		t.Errorf("chose %d nodes, want 2 (earliest completion)", mold.ChosenN)
	}
}

func TestMalleableAppPowerOfTwoFilling(t *testing.T) {
	v := newEnv(40, core.EquiPartitionFilling)
	powerOfTwo := func(visible int) int {
		p := 1
		for p*2 <= visible {
			p *= 2
		}
		if visible < 1 {
			return 0
		}
		return p
	}
	m := NewMalleable(clock.SimClock{E: v.e}, c0, 4, 1e6, powerOfTwo)
	v.connect(m, m)
	if err := m.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(5)
	if !m.minStarted {
		t.Fatal("minimum part did not start")
	}
	// 36 visible preemptible nodes -> the paper's example: request 32.
	if got := len(m.ExtraIDs); got != 32 {
		t.Errorf("extra nodes = %d, want 32 (power of two below 36)", got)
	}
}

func TestPredictableEvolvingChain(t *testing.T) {
	v := newEnv(10, core.EquiPartitionFilling)
	segs := []Segment{{N: 2, Duration: 50}, {N: 6, Duration: 50}, {N: 3, Duration: 50}}
	p := NewPredictableEvolving(clock.SimClock{E: v.e}, c0, segs)
	v.connect(p, p)
	if err := p.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(200)
	for i := range segs {
		if !p.SegmentStarted(i) {
			t.Fatalf("segment %d never started", i)
		}
	}
	// Segments follow each other immediately (NEXT semantics).
	if p.Starts[1]-p.Starts[0] != 50 || p.Starts[2]-p.Starts[1] != 50 {
		t.Errorf("segment starts = %v, want spacing 50", p.Starts)
	}
	// The shrink to 3 nodes left 3 IDs held at the end.
	if len(p.Held()) != 3 {
		t.Errorf("held after shrink = %v, want 3 IDs", p.Held())
	}
}

// testProfile builds a small AMR profile for app tests: 50 GiB peak keeps
// target node counts around 80 on a 200-node cluster and steps a few
// seconds long.
func testProfile(seed int64, steps int) amr.Profile {
	return amr.GenerateProfile(stats.NewRand(seed), steps, 50*1024)
}

func TestNEADynamicCompletes(t *testing.T) {
	v := newEnv(200, core.EquiPartitionFilling)
	prof := testProfile(1, 30)
	params := amr.DefaultParams
	neq, _ := params.EquivalentStatic(prof, 0.75)
	a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{
		Cluster: c0, Profile: prof, Params: params, TargetEff: 0.75,
		PreAllocN: neq, Mode: NEADynamic,
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.RunAll()
	if a.Err != nil {
		t.Fatalf("NEA protocol error: %v", a.Err)
	}
	if !a.Finished() {
		t.Fatalf("NEA did not finish: step=%d", a.Step())
	}
	if a.EndTime <= a.StartTime {
		t.Error("end time not after start time")
	}
	// All resources returned.
	if got := v.rec.Current(1); got != 0 {
		t.Errorf("NEA still holds %d nodes after finishing", got)
	}
}

func TestNEAStaticUsesWholePreAllocation(t *testing.T) {
	v := newEnv(200, core.EquiPartitionFilling)
	prof := testProfile(2, 20)
	a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{
		Cluster: c0, Profile: prof, Params: amr.DefaultParams, TargetEff: 0.75,
		PreAllocN: 120, Mode: NEAStatic,
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.RunAll()
	if !a.Finished() {
		t.Fatal("static NEA did not finish")
	}
	if got := v.rec.MaxAlloc(1); got != 120 {
		t.Errorf("peak allocation = %d, want the full pre-allocation 120", got)
	}
	// Static end-time equals the model's prediction exactly.
	want := amr.DefaultParams.StaticEndTime(prof, 120)
	if math.Abs((a.EndTime-a.StartTime)-want) > 1 {
		t.Errorf("static runtime = %v, model says %v", a.EndTime-a.StartTime, want)
	}
}

func TestNEADynamicUsesLessAreaThanStatic(t *testing.T) {
	// The heart of Fig. 9: with overcommit > 1, dynamic allocation consumes
	// far less than static.
	prof := testProfile(3, 25)
	params := amr.DefaultParams
	neq, _ := params.EquivalentStatic(prof, 0.75)
	over := 3.0
	pre := int(over * float64(neq))

	run := func(mode NEAMode) float64 {
		v := newEnv(2*pre, core.EquiPartitionFilling)
		a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{
			Cluster: c0, Profile: prof, Params: params, TargetEff: 0.75,
			PreAllocN: pre, Mode: mode,
		})
		v.connect(a, a)
		if err := a.Submit(); err != nil {
			t.Fatal(err)
		}
		v.e.RunAll()
		if !a.Finished() {
			t.Fatalf("mode %v did not finish", mode)
		}
		return v.rec.Area(1, a.EndTime)
	}
	dyn := run(NEADynamic)
	stat := run(NEAStatic)
	if dyn >= stat {
		t.Errorf("dynamic area %v should be below static %v at overcommit 2", dyn, stat)
	}
	if stat/dyn < 1.3 {
		t.Errorf("expected a substantial gap, got static/dynamic = %v", stat/dyn)
	}
}

func TestNEAAnnouncedUpdatesFinishLater(t *testing.T) {
	prof := testProfile(4, 25)
	params := amr.DefaultParams
	neq, _ := params.EquivalentStatic(prof, 0.75)

	run := func(announce float64) float64 {
		v := newEnv(neq+50, core.EquiPartitionFilling)
		a := NewNEA(clock.SimClock{E: v.e}, NEAConfig{
			Cluster: c0, Profile: prof, Params: params, TargetEff: 0.75,
			PreAllocN: neq, Mode: NEADynamic, AnnounceInterval: announce,
		})
		v.connect(a, a)
		if err := a.Submit(); err != nil {
			t.Fatal(err)
		}
		v.e.RunAll()
		if !a.Finished() || a.Err != nil {
			t.Fatalf("announce=%v did not finish cleanly (err=%v)", announce, a.Err)
		}
		return a.EndTime - a.StartTime
	}
	spont := run(0)
	ann := run(30)
	if ann < spont {
		t.Errorf("announced updates (%v s) should not finish before spontaneous (%v s)", ann, spont)
	}
}

func TestPSAClaimsEverythingWhenAlone(t *testing.T) {
	v := newEnv(50, core.EquiPartitionFilling)
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 60})
	v.connect(p, p)
	v.e.Run(5)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if got := p.HeldNodes(); got != 50 {
		t.Errorf("PSA holds %d, want all 50", got)
	}
	// After 10 task durations it has completed ~500 tasks.
	v.e.Run(5 + 10*60)
	if got := p.CompletedTasks(); got < 450 || got > 550 {
		t.Errorf("completed tasks = %d, want ≈ 500", got)
	}
	if p.Waste() != 0 {
		t.Errorf("unforced PSA should have no waste, got %v", p.Waste())
	}
}

func TestPSAKilledTasksOnSpontaneousRevocation(t *testing.T) {
	v := newEnv(50, core.EquiPartitionFilling)
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 600})
	v.connect(p, p)
	v.e.Run(100) // tasks are mid-flight (elapsed ~100 s)

	// A rigid job suddenly needs 20 nodes: spontaneous revocation.
	r := NewRigid(clock.SimClock{E: v.e}, c0, 20, 400)
	v.connect(r, r)
	if err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(110)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if !r.Started {
		t.Fatal("rigid job did not start after revocation")
	}
	if got := p.HeldNodes(); got != 30 {
		t.Errorf("PSA holds %d, want 30", got)
	}
	// 20 killed tasks, each ~100 s in: waste ≈ 2000 node·s.
	if w := p.Waste(); w < 1500 || w > 2500 {
		t.Errorf("waste = %v, want ≈ 2000", w)
	}
	if killed, _ := p.Killed(); killed {
		t.Error("cooperative PSA must not be killed by the RMS")
	}
}

// TestPSARecordsOnlyPositiveWaste pins why metrics.Recorder.AddWaste's
// negative-waste panic is unreachable: its only caller, the PSA's
// recordWaste, drops a non-positive amount before it reaches the recorder.
func TestPSARecordsOnlyPositiveWaste(t *testing.T) {
	rec := metrics.NewRecorder()
	p := NewPSA(clock.SimClock{E: sim.NewEngine()}, PSAConfig{Cluster: c0, TaskDuration: 60, Metrics: rec})
	p.SetMetricsID(7)
	for _, w := range []float64{0, math.Copysign(0, -1), -5, math.Inf(-1), 3} {
		p.recordWaste(w, "test")
	}
	if got := rec.Waste(7); got != 3 || p.Waste() != 3 {
		t.Errorf("recorded waste %v, PSA waste %v; want 3 and 3", got, p.Waste())
	}
}

func TestPSAGracefulReleaseNoWaste(t *testing.T) {
	// An announced drop with notice > d_task lets every victim finish its
	// task: zero waste (§5.3: "Once the announce interval is greater than
	// the task duration d_task, no PSA waste occurs").
	v := newEnv(50, core.EquiPartitionFilling)
	// An evolving app announces up front: 20 nodes needed at t ≈ 200
	// (the whole NEXT chain is exported to the RMS at submit time).
	a := NewPredictableEvolving(clock.SimClock{E: v.e}, c0, []Segment{
		{N: 1, Duration: 200}, {N: 20, Duration: 300},
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(10)
	if !a.SegmentStarted(0) {
		t.Fatal("segment 0 did not start")
	}

	// The PSA joins afterwards: every future drop is visible in its view.
	p := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 100})
	v.connect(p, p)
	v.e.Run(600)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if !a.SegmentStarted(1) {
		t.Fatal("the 20-node segment never started")
	}
	if w := p.Waste(); w != 0 {
		t.Errorf("graceful release should cost nothing, waste = %v", w)
	}
}

func TestTwoPSAsEquiPartition(t *testing.T) {
	v := newEnv(40, core.EquiPartitionFilling)
	p1 := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 60})
	v.connect(p1, p1)
	v.e.Run(3)
	p2 := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 60})
	v.connect(p2, p2)
	v.e.Run(30)
	if p1.Err != nil || p2.Err != nil {
		t.Fatal(p1.Err, p2.Err)
	}
	if p1.HeldNodes()+p2.HeldNodes() != 40 {
		t.Errorf("partitions do not cover the cluster: %d + %d", p1.HeldNodes(), p2.HeldNodes())
	}
	if p1.HeldNodes() != 20 || p2.HeldNodes() != 20 {
		t.Errorf("equi-partition = %d/%d, want 20/20", p1.HeldNodes(), p2.HeldNodes())
	}
}

func TestPSAFillingWhenOtherDeclines(t *testing.T) {
	// §5.4: when one PSA cannot use resources (its task is too long for the
	// hole), the other fills them under the filling policy.
	v := newEnv(40, core.EquiPartitionFilling)
	// A long-task PSA that cannot use short windows.
	long := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 10000})
	v.connect(long, long)
	v.e.Run(3)
	short := NewPSA(clock.SimClock{E: v.e}, PSAConfig{Cluster: c0, TaskDuration: 10})
	v.connect(short, short)
	v.e.Run(30)
	// An announced future drop (via an evolving app) makes windows finite.
	a := NewPredictableEvolving(clock.SimClock{E: v.e}, c0, []Segment{
		{N: 1, Duration: 2000}, {N: 30, Duration: 5000},
	})
	v.connect(a, a)
	if err := a.Submit(); err != nil {
		t.Fatal(err)
	}
	v.e.Run(1000)
	if long.Err != nil || short.Err != nil {
		t.Fatal(long.Err, short.Err)
	}
	// The long-task PSA gave up (or never claimed) nodes whose windows are
	// too short; the short-task PSA can still run tasks there.
	if short.HeldNodes() == 0 {
		t.Error("short-task PSA should be filling")
	}
	if short.CompletedTasks() == 0 {
		t.Error("short-task PSA did no useful work")
	}
}

// TestRigidRestartMovesCompletion is the crash-requeue regression: when a
// rigid job's request is re-started after a shard crash (same request ID,
// fresh allocation), the completion moves to the re-run's end — the first
// run's end timer must not settle the job early.
func TestRigidRestartMovesCompletion(t *testing.T) {
	e := sim.NewEngine()
	r := NewRigid(clock.SimClock{E: e}, "c0", 2, 100)
	r.reqID = 7
	ends := 0
	r.OnEnd = func() { ends++ }
	r.OnStart(7, []int{0, 1})
	e.Run(40) // crash + requeue happen here; the re-run starts at t=40
	r.OnStart(7, []int{2, 3})
	e.RunAll()
	if ends != 1 || r.EndTime != 140 {
		t.Fatalf("ends=%d EndTime=%v, want one completion at t=140", ends, r.EndTime)
	}
}

// The application drivers are transport-agnostic: the TCP client satisfies
// the same Session interface as the in-process RMS session, so every
// behaviour in this package can run against a real coormd daemon.
var _ Session = (*transport.Client)(nil)
