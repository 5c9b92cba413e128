package experiments

import (
	"strings"
	"testing"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/stats"
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

// figScenario is the ScenarioConfig the figure presets build
// (Options.amrScenario), at test scale.
func figScenario(seed int64, overcommit float64, mode apps.NEAMode, announce float64, psaDurs ...float64) ScenarioConfig {
	return ScenarioConfig{
		Seed: seed, Steps: testSteps, Smax: testSmax,
		TargetEff: 0.75, Overcommit: overcommit, Mode: mode,
		AnnounceInterval: announce, PSATaskDurations: psaDurs,
	}
}

func mustRunScenario(t *testing.T, cfg ScenarioConfig) *ScenarioResult {
	t.Helper()
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig1(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		series := amr.GenerateProfile(stats.NewRand(seed), 100, 1000)
		if len(series) != 100 {
			t.Errorf("seed %d: %d steps", seed, len(series))
		}
		max := 0.0
		for _, v := range series {
			if v > max {
				max = v
			}
		}
		if max < 999 || max > 1001 {
			t.Errorf("seed %d: peak %v, want ≈ 1000 (normalized)", seed, max)
		}
	}
}

func TestFig2(t *testing.T) {
	ms := amr.SynthesizeMeasurements(amr.DefaultParams, stats.NewRand(1), 0.05)
	fitted, err := amr.FitSpeedup(ms)
	if err != nil {
		t.Fatal(err)
	}
	if e := amr.MaxRelError(fitted, ms); e >= 0.15 {
		t.Errorf("max relative error %v, paper requires < 15%%", e)
	}
	if len(ms) == 0 {
		t.Error("no fit rows")
	}
}

func TestFig3(t *testing.T) {
	p := amr.DefaultParams
	pr := amr.GenerateProfile(stats.NewRand(1), testSteps, amr.DefaultSmax)
	for _, et := range []float64{0.3, 0.5, 0.75} {
		if inc := 100 * p.EndTimeIncrease(pr, et); inc < -1 || inc > 6 {
			t.Errorf("et=%v: end-time increase %v%% outside the paper's ballpark", et, inc)
		}
		if neq, _ := p.EquivalentStatic(pr, et); neq < 1 {
			t.Errorf("et=%v: n_eq = %d", et, neq)
		}
	}
}

// TestDefaultSweepsAreConstant pins why stats.Linspace's n < 2 panic and
// stats.Logspace's non-positive-bound panic are unreachable: their only
// callers are fig3Exp's and fig9Exp's sweeps, literals no flag or input
// changes.
func TestDefaultSweepsAreConstant(t *testing.T) {
	o := DefaultOptions()
	fig3, err := fig3Exp(o)
	if err != nil {
		t.Fatal(err)
	}
	if rows := fig3.Rows; len(rows) != 17 || rows[0][0] != "0.10" || rows[16][0] != "0.90" {
		t.Fatalf("fig3's sweep: %d rows from %v", len(rows), rows[0][0])
	}
	fig9, err := fig9Exp(o)
	if err != nil {
		t.Fatal(err)
	}
	if rows := fig9.Rows; len(rows) != 9 || rows[0][0] != "0.100" || rows[8][0] != "10.000" {
		t.Fatalf("fig9's sweep: %d rows from %v", len(rows), rows[0][0])
	}
}

func TestFig4(t *testing.T) {
	p := amr.DefaultParams
	pr := amr.GenerateProfile(stats.NewRand(1), testSteps, amr.DefaultSmax)
	feasible := func(rel float64) bool {
		return p.StaticChoiceRange(pr, 0.75, amr.DefaultNodeMemoryMiB, rel).Feasible
	}
	if !feasible(0.5) || !feasible(1) {
		t.Error("moderate sizes should be feasible")
	}
	if feasible(8) {
		t.Error("8× the data should not be feasible with 4 GiB nodes (memory floor above area ceiling)")
	}
}

func TestFig9Smoke(t *testing.T) {
	var static, dynamic []float64
	for _, over := range []float64{0.5, 1, 2} {
		dynamic = append(dynamic, mustRunScenario(t, figScenario(1, over, apps.NEADynamic, 0, 60)).AMRArea)
		static = append(static, mustRunScenario(t, figScenario(1, over, apps.NEAStatic, 0, 60)).AMRArea)
	}
	// Static grows with overcommit; dynamic stays roughly flat.
	if static[2] <= static[1] {
		t.Errorf("static area should grow with overcommit: %v then %v", static[1], static[2])
	}
	growth := dynamic[2] / dynamic[1]
	if growth > 1.3 {
		t.Errorf("dynamic area grew by %vx from overcommit 1 to 2; should be ≈ flat", growth)
	}
	// At overcommit ≥ 1 static costs more than dynamic.
	if static[2] <= dynamic[2] {
		t.Error("static should cost more than dynamic at overcommit 2")
	}
}

func TestFig10Smoke(t *testing.T) {
	var endTimeIncPct, wastePct []float64
	var baseline float64
	for i, ann := range []float64{0, 30, 90} {
		res := mustRunScenario(t, figScenario(1, 1, apps.NEADynamic, ann, 60))
		if i == 0 {
			baseline = res.AMRRuntime
		}
		endTimeIncPct = append(endTimeIncPct, 100*(res.AMRRuntime/baseline-1))
		waste := 0.0
		if res.PSAArea[0] > 0 {
			waste = 100 * res.PSAWaste[0] / res.PSAArea[0]
		}
		wastePct = append(wastePct, waste)
	}
	if endTimeIncPct[0] != 0 {
		t.Errorf("baseline end-time increase = %v, want 0", endTimeIncPct[0])
	}
	// With notice ≥ d_task the PSA stops wasting.
	if wastePct[2] > wastePct[0] {
		t.Errorf("waste with notice %v%% should not exceed spontaneous %v%%", wastePct[2], wastePct[0])
	}
	if wastePct[2] > 1 {
		t.Errorf("waste with notice ≥ d_task = %v%%, want ≈ 0", wastePct[2])
	}
	// End time grows with the announce interval.
	if endTimeIncPct[2] < 0 {
		t.Errorf("announced updates should not speed the AMR up: %v%%", endTimeIncPct[2])
	}
}

func TestFig11Smoke(t *testing.T) {
	for _, ann := range []float64{0, 60} {
		var filling, strict []float64
		for _, seed := range []int64{1, 2} {
			cfg := figScenario(seed, 1, apps.NEADynamic, ann, 120, 12)
			filling = append(filling, 100*mustRunScenario(t, cfg).UsedFraction)
			cfg.Policy = core.StrictEquiPartition
			strict = append(strict, 100*mustRunScenario(t, cfg).UsedFraction)
		}
		fillingPct, strictPct := stats.Median(filling), stats.Median(strict)
		if fillingPct < strictPct-1 {
			t.Errorf("announce=%v: filling %v%% should not lose to strict %v%%", ann, fillingPct, strictPct)
		}
		if fillingPct <= 0 || fillingPct > 100.001 {
			t.Errorf("announce=%v: implausible used%% %v", ann, fillingPct)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := formatTable([]string{"x", "long-header"}, [][]string{{"1", "2"}, {"300", "4"}})
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
