package coormv2

import (
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/view"
)

// facadeApp is a minimal AppHandler for facade-level tests.
type facadeApp struct {
	views  int
	starts map[request.ID][]int
	killed string
	// npMax is the largest node count any non-preemptive view showed on c0.
	npMax int
}

func newFacadeApp() *facadeApp { return &facadeApp{starts: map[request.ID][]int{}} }

func (a *facadeApp) OnViews(np, _ view.View) {
	a.views++
	if f, ok := np.Lookup("c0"); ok {
		for i := range f.Len() {
			_, n := f.At(i)
			a.npMax = max(a.npMax, n)
		}
	}
}

func (a *facadeApp) OnStart(id request.ID, nodeIDs []int) { a.starts[id] = nodeIDs }
func (a *facadeApp) OnKill(reason string)                 { a.killed = reason }

func TestSimulationQuickstart(t *testing.T) {
	sim := NewSimulation(map[ClusterID]int{"c0": 64})
	app := newFacadeApp()
	sess := sim.Server.Connect(app)
	id, err := sess.Request(RequestSpec{Cluster: "c0", N: 8, Duration: 3600, Type: NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if ids, ok := app.starts[id]; !ok || len(ids) != 8 {
		t.Fatalf("starts = %v", app.starts)
	}
	if app.views == 0 {
		t.Error("no views pushed")
	}
	if sim.Now() < 3600 {
		t.Errorf("simulation should have passed the job's end, now=%v", sim.Now())
	}
	if got := sim.Metrics.Area(sess.AppID(), 3600); got != 8*3600 {
		t.Errorf("area = %v, want %v", got, 8*3600)
	}
}

func TestSimulationOptions(t *testing.T) {
	sim := NewSimulation(map[ClusterID]int{"c0": 10},
		WithPolicy(StrictEquiPartition),
		WithReschedInterval(0.5),
		WithClip(View{}.AddRect("c0", 0, 1e9, 4)),
	)
	if sim.Server.Shard(0).Scheduler().Policy() != StrictEquiPartition {
		t.Error("policy option not applied")
	}
	// The clip caps what any application can see non-preemptively: 4 of
	// the cluster's 10 nodes.
	app := newFacadeApp()
	sim.Server.Connect(app)
	sim.Run(2)
	if app.views == 0 {
		t.Fatal("no views")
	}
	if app.npMax == 0 || app.npMax > 4 {
		t.Errorf("non-preemptive view on c0 peaks at %d nodes, want 1..4 under the clip", app.npMax)
	}
}

func TestDefaultAMRParamsSane(t *testing.T) {
	// t(1, Smax) is ~24000 s with the paper's constants.
	got := DefaultAMRParams.StepTime(1, 3.16*1024*1024)
	if got < 20000 || got > 30000 {
		t.Errorf("facade AMR params broken: %v", got)
	}
}

func TestConstantsWiredThrough(t *testing.T) {
	if PreAlloc.String() != "PA" || NonPreempt.String() != "¬P" || Preempt.String() != "P" {
		t.Error("request type constants")
	}
	if Free.String() != "FREE" || Coalloc.String() != "COALLOC" || Next.String() != "NEXT" {
		t.Error("relation constants")
	}
	if EquiPartitionFilling.String() == StrictEquiPartition.String() {
		t.Error("policy constants")
	}
}
