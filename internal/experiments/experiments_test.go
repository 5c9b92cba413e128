package experiments

import (
	"strings"
	"testing"

	"coormv2/internal/apps"
	"coormv2/internal/core"
)

// Test scale: short profiles and a small S_max keep node counts ~100 and
// runs in tens of milliseconds while exercising every code path the full
// experiments use.
const (
	testSteps = 60
	testSmax  = 50 * 1024 // 50 GiB
)

func TestRunScenarioDynamic(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Seed: 1, Steps: testSteps, Smax: testSmax,
		Overcommit: 1, Mode: apps.NEADynamic,
		PSATaskDurations: []float64{60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AMRArea <= 0 || res.AMRRuntime <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.UsedFraction <= 0.5 || res.UsedFraction > 1.0001 {
		t.Errorf("used fraction = %v, expected high utilization with a PSA filling", res.UsedFraction)
	}
	if len(res.PSAArea) != 1 || res.PSAArea[0] <= 0 {
		t.Errorf("PSA area = %v", res.PSAArea)
	}
}

func TestRunScenarioStaticUsesMoreAtHighOvercommit(t *testing.T) {
	base := ScenarioConfig{
		Seed: 2, Steps: testSteps, Smax: testSmax, Overcommit: 3,
		PSATaskDurations: []float64{60},
	}
	dynCfg := base
	dynCfg.Mode = apps.NEADynamic
	dyn, err := RunScenario(dynCfg)
	if err != nil {
		t.Fatal(err)
	}
	statCfg := base
	statCfg.Mode = apps.NEAStatic
	stat, err := RunScenario(statCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stat.AMRArea <= dyn.AMRArea {
		t.Errorf("static area %v should exceed dynamic %v at overcommit 3", stat.AMRArea, dyn.AMRArea)
	}
}

func TestRunScenarioRejectsTooSmallCluster(t *testing.T) {
	_, err := RunScenario(ScenarioConfig{
		Seed: 1, Steps: testSteps, Smax: testSmax, Overcommit: 1, Nodes: 2,
	})
	if err == nil {
		t.Fatal("expected an error for a cluster smaller than the pre-allocation")
	}
}

func TestFig1(t *testing.T) {
	profiles := Fig1(Fig1Config{Seeds: []int64{1, 2}, Steps: 100})
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if len(p.Series) != 100 {
			t.Errorf("seed %d: %d steps", p.Seed, len(p.Series))
		}
		max := 0.0
		for _, v := range p.Series {
			if v > max {
				max = v
			}
		}
		if max < 999 || max > 1001 {
			t.Errorf("seed %d: peak %v, want ≈ 1000 (normalized)", p.Seed, max)
		}
	}
}

func TestFig2(t *testing.T) {
	res, err := Fig2(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelError >= 0.15 {
		t.Errorf("max relative error %v, paper requires < 15%%", res.MaxRelError)
	}
	if len(res.Rows) == 0 {
		t.Error("no fit rows")
	}
}

func TestFig3(t *testing.T) {
	rows := Fig3(1, testSteps, []float64{0.3, 0.5, 0.75})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EndTimeIncreasePct < -1 || r.EndTimeIncreasePct > 6 {
			t.Errorf("et=%v: end-time increase %v%% outside the paper's ballpark", r.TargetEff, r.EndTimeIncreasePct)
		}
		if r.Neq < 1 {
			t.Errorf("et=%v: n_eq = %d", r.TargetEff, r.Neq)
		}
	}
}

// TestDefaultSweepsAreConstant pins why stats.Linspace's n < 2 panic and
// stats.Logspace's non-positive-bound panic are unreachable: their only
// callers are Fig3's and Fig9's default sweeps, fixed grids no flag or
// input changes (coorm-exp passes no sweep of its own).
func TestDefaultSweepsAreConstant(t *testing.T) {
	rows := Fig3(1, testSteps, nil)
	if len(rows) != 17 || rows[0].TargetEff != 0.1 || rows[16].TargetEff != 0.9 {
		t.Fatalf("Fig3's default sweep: %d rows from %v", len(rows), rows[0].TargetEff)
	}
	fig9, err := Fig9(Fig9Config{Seed: 1, Steps: testSteps, Smax: testSmax, PSATaskDur: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig9) != 9 || fig9[0].Overcommit != 0.1 || fig9[8].Overcommit != 10 {
		t.Fatalf("Fig9's default sweep: %d rows from %v", len(fig9), fig9[0].Overcommit)
	}
}

func TestFig4(t *testing.T) {
	rows := Fig4(1, testSteps, []float64{0.5, 1, 8}, 0)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[0].Feasible || !rows[1].Feasible {
		t.Error("moderate sizes should be feasible")
	}
	if rows[2].Feasible {
		t.Error("8× the data should not be feasible with 4 GiB nodes (memory floor above area ceiling)")
	}
}

func TestFig9Smoke(t *testing.T) {
	rows, err := Fig9(Fig9Config{
		Overcommits: []float64{0.5, 1, 2},
		Seed:        1, Steps: testSteps, Smax: testSmax,
		PSATaskDur: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Static grows with overcommit; dynamic stays roughly flat.
	if rows[2].StaticArea <= rows[1].StaticArea {
		t.Errorf("static area should grow with overcommit: %v then %v", rows[1].StaticArea, rows[2].StaticArea)
	}
	growth := rows[2].DynamicArea / rows[1].DynamicArea
	if growth > 1.3 {
		t.Errorf("dynamic area grew by %vx from overcommit 1 to 2; should be ≈ flat", growth)
	}
	// At overcommit ≥ 1 static costs more than dynamic.
	if rows[2].StaticArea <= rows[2].DynamicArea {
		t.Error("static should cost more than dynamic at overcommit 2")
	}
}

func TestFig10Smoke(t *testing.T) {
	rows, err := Fig10(Fig10Config{
		AnnounceIntervals: []float64{0, 30, 90},
		Seed:              1, Steps: testSteps, Smax: testSmax,
		PSATaskDur: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].EndTimeIncreasePct != 0 {
		t.Errorf("baseline end-time increase = %v, want 0", rows[0].EndTimeIncreasePct)
	}
	// With notice ≥ d_task the PSA stops wasting.
	if rows[2].PSAWastePct > rows[0].PSAWastePct {
		t.Errorf("waste with notice %v%% should not exceed spontaneous %v%%", rows[2].PSAWastePct, rows[0].PSAWastePct)
	}
	if rows[2].PSAWastePct > 1 {
		t.Errorf("waste with notice ≥ d_task = %v%%, want ≈ 0", rows[2].PSAWastePct)
	}
	// End time grows with the announce interval.
	if rows[2].EndTimeIncreasePct < 0 {
		t.Errorf("announced updates should not speed the AMR up: %v%%", rows[2].EndTimeIncreasePct)
	}
}

func TestFig11Smoke(t *testing.T) {
	rows, err := Fig11(Fig11Config{
		AnnounceIntervals: []float64{0, 60},
		Seeds:             []int64{1, 2},
		Steps:             testSteps, Smax: testSmax,
		PSA1TaskDur: 120, PSA2TaskDur: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FillingPct < r.StrictPct-1 {
			t.Errorf("announce=%v: filling %v%% should not lose to strict %v%%",
				r.AnnounceInterval, r.FillingPct, r.StrictPct)
		}
		if r.FillingPct <= 0 || r.FillingPct > 100.001 {
			t.Errorf("announce=%v: implausible used%% %v", r.AnnounceInterval, r.FillingPct)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"x", "long-header"}, [][]string{{"1", "2"}, {"300", "4"}})
	if !strings.HasPrefix(s, "# x") {
		t.Errorf("missing gnuplot comment header: %q", s)
	}
	if !strings.Contains(s, "long-header") || !strings.Contains(s, "300") {
		t.Errorf("table content missing: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("table should have 3 lines, got %d", len(lines))
	}
}

func TestScenarioDeterminism(t *testing.T) {
	cfg := ScenarioConfig{
		Seed: 7, Steps: 40, Smax: testSmax, Overcommit: 1,
		Mode: apps.NEADynamic, PSATaskDurations: []float64{30},
		Policy: core.EquiPartitionFilling,
	}
	a, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AMRArea != b.AMRArea || a.Makespan != b.Makespan || a.PSAWaste[0] != b.PSAWaste[0] || a.Events != b.Events {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}
