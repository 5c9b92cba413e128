package amr

import (
	"math"
	"testing"

	"coormv2/internal/stats"
)

func TestStepTimeKnownValues(t *testing.T) {
	p := DefaultParams
	// Sequential time at the full 3.16 TiB: dominated by A·S ≈ 24 000 s.
	t1 := p.StepTime(1, DefaultSmax)
	if t1 < 20000 || t1 > 30000 {
		t.Errorf("t(1, Smax) = %v, expected ≈ 24 000 s", t1)
	}
	// At 1400 nodes (the paper's n = 1400·κ scale) a step takes ~20 s.
	t1400 := p.StepTime(1400, DefaultSmax)
	if t1400 < 15 || t1400 > 30 {
		t.Errorf("t(1400, Smax) = %v, expected ≈ 20–25 s", t1400)
	}
}

func TestStepTimePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=0 should panic")
		}
	}()
	DefaultParams.StepTime(0, 100)
}

// TestStepTimeCallersPassPositiveNodes pins that StepTime's n < 1 panic is
// unreachable from a flag, a trace or a socket: every node count a caller
// hands it is a Fig2Nodes constant, a NodesForEfficiency or
// EquivalentStatic answer, or an NEA's allocation, clamped into
// [1, PreAllocN] after Submit refused PreAllocN < 1 (apps
// TestNEAErrOnBadSubmit). The answers stay ≥ 1 at every extreme of size
// and target efficiency, the out-of-range ones included.
func TestStepTimeCallersPassPositiveNodes(t *testing.T) {
	for _, n := range Fig2Nodes {
		if n < 1 {
			t.Errorf("Fig2Nodes holds %d", n)
		}
	}
	p := DefaultParams
	for _, s := range []float64{0, 1e-9, 1, DefaultSmax, 1e15, math.Inf(1), math.NaN()} {
		for _, et := range []float64{1e-12, 0.5, 0.75, 1, 2, math.Inf(1), math.NaN()} {
			if n := p.NodesForEfficiency(s, et); n < 1 {
				t.Errorf("NodesForEfficiency(%g, %g) = %d", s, et, n)
			}
		}
	}
	pr := GenerateProfile(stats.NewRand(1), 20, DefaultSmax)
	for _, et := range []float64{1e-12, 0.75, 1, 2} {
		for i, n := range p.DynamicAllocation(pr, et) {
			if n < 1 {
				t.Errorf("DynamicAllocation(et=%g)[%d] = %d", et, i, n)
			}
		}
		if n, _ := p.EquivalentStatic(pr, et); n < 1 {
			t.Errorf("EquivalentStatic(et=%g) = %d", et, n)
		}
	}
}

func TestEfficiencyProperties(t *testing.T) {
	p := DefaultParams
	if e := p.Efficiency(1, DefaultSmax); math.Abs(e-1) > 1e-12 {
		t.Errorf("efficiency on one node = %v, want 1", e)
	}
	// Strictly decreasing in n.
	prev := 2.0
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		e := p.Efficiency(n, DefaultSmax)
		if e >= prev {
			t.Errorf("efficiency not decreasing at n=%d: %v >= %v", n, e, prev)
		}
		prev = e
	}
}

func TestNodesForEfficiency(t *testing.T) {
	p := DefaultParams
	n := p.NodesForEfficiency(DefaultSmax, 0.75)
	// The paper sizes the cluster as 1400·κ for this workload; the
	// target-efficiency node count at peak size is in that neighbourhood.
	if n < 1000 || n > 2500 {
		t.Errorf("NodesForEfficiency(Smax, 0.75) = %d, expected ≈ 1400–1600", n)
	}
	if e := p.Efficiency(n, DefaultSmax); e < 0.75 {
		t.Errorf("returned n misses the target: e=%v", e)
	}
	if e := p.Efficiency(n+1, DefaultSmax); e >= 0.75 {
		t.Errorf("n is not maximal: e(n+1)=%v", e)
	}
	// Tiny data: answer must still be >= 1.
	if got := p.NodesForEfficiency(0.001, 0.99); got < 1 {
		t.Errorf("tiny size gave n=%d", got)
	}
}

func TestNodesForEfficiencyMonotoneInTarget(t *testing.T) {
	p := DefaultParams
	prev := math.MaxInt
	for _, et := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		n := p.NodesForEfficiency(DefaultSmax, et)
		if n > prev {
			t.Errorf("higher target efficiency should not need more nodes: et=%v n=%d prev=%d", et, n, prev)
		}
		prev = n
	}
}

func TestGenerateProfileShape(t *testing.T) {
	rng := stats.NewRand(1)
	pr := GenerateProfile(rng, ProfileSteps, DefaultSmax)
	if len(pr) != ProfileSteps {
		t.Fatalf("len = %d", len(pr))
	}
	// Peak must be exactly Smax (normalization) and all values in range.
	if math.Abs(pr.Max()-DefaultSmax) > 1e-6 {
		t.Errorf("peak = %v, want %v", pr.Max(), DefaultSmax)
	}
	for i, s := range pr {
		if s < 0 || s > DefaultSmax+1e-6 {
			t.Fatalf("step %d out of range: %v", i, s)
		}
	}
	// "Mostly increasing": the last decile's mean must exceed the first's.
	head := stats.Mean(pr[:100])
	tail := stats.Mean(pr[900:])
	if tail <= head {
		t.Errorf("profile not mostly increasing: head=%v tail=%v", head, tail)
	}
}

func TestGenerateProfileDeterministicPerSeed(t *testing.T) {
	a := GenerateProfile(stats.NewRand(7), 100, 1000)
	b := GenerateProfile(stats.NewRand(7), 100, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different profiles")
		}
	}
	c := GenerateProfile(stats.NewRand(8), 100, 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical profiles")
	}
}

func TestProfileScale(t *testing.T) {
	pr := Profile{10, 20, 30}
	sc := pr.Scale(0.5)
	if sc[0] != 5 || sc[2] != 15 {
		t.Errorf("Scale = %v", sc)
	}
	if pr[0] != 10 {
		t.Error("Scale mutated the original")
	}
}

func TestDynamicAreaMatchesDefinition(t *testing.T) {
	// A(e_t) = Σ t(1,S_i)/e_t when the efficiency target is met exactly;
	// with integer node counts the area is within a few percent of that.
	p := DefaultParams
	pr := GenerateProfile(stats.NewRand(3), 200, DefaultSmax)
	et := 0.75
	area := p.DynamicArea(pr, et)
	ideal := 0.0
	for _, s := range pr {
		ideal += p.SeqTime(s) / et
	}
	if math.Abs(area-ideal)/ideal > 0.05 {
		t.Errorf("area = %v, ideal = %v (>5%% apart)", area, ideal)
	}
}

func TestEquivalentStaticCrossesArea(t *testing.T) {
	p := DefaultParams
	pr := GenerateProfile(stats.NewRand(4), ProfileSteps, DefaultSmax)
	neq, relErr := p.EquivalentStatic(pr, 0.75)
	if neq < 100 || neq > 5000 {
		t.Errorf("n_eq = %d, implausible", neq)
	}
	if relErr > 0.01 {
		t.Errorf("area mismatch %v > 1%%", relErr)
	}
}

func TestEndTimeIncreaseSmall(t *testing.T) {
	// Fig. 3: "the end-time of the application increases with at most 2.5%".
	p := DefaultParams
	pr := GenerateProfile(stats.NewRand(5), ProfileSteps, DefaultSmax)
	for _, et := range []float64{0.3, 0.5, 0.75} {
		inc := p.EndTimeIncrease(pr, et)
		if inc < -0.01 {
			t.Errorf("et=%v: negative end-time increase %v", et, inc)
		}
		if inc > 0.05 {
			t.Errorf("et=%v: end-time increase %v, paper bound is ~2.5%%", et, inc)
		}
	}
}

func TestStaticChoiceRange(t *testing.T) {
	p := DefaultParams
	pr := GenerateProfile(stats.NewRand(6), ProfileSteps, DefaultSmax)
	small := p.StaticChoiceRange(pr, 0.75, DefaultNodeMemoryMiB, 0.125)
	full := p.StaticChoiceRange(pr, 0.75, DefaultNodeMemoryMiB, 1)
	big := p.StaticChoiceRange(pr, 0.75, DefaultNodeMemoryMiB, 8)

	if !small.Feasible || !full.Feasible {
		t.Errorf("small/full sizes should be feasible: %+v %+v", small, full)
	}
	// Larger data ⇒ higher memory floor.
	if !(small.MinNodes < full.MinNodes && full.MinNodes < big.MinNodes) {
		t.Errorf("memory floor not increasing: %d %d %d", small.MinNodes, full.MinNodes, big.MinNodes)
	}
	// The choice band narrows (relatively) as unpredictability bites: the
	// max stays ≥ min for feasible rows.
	if full.MaxNodes < full.MinNodes {
		t.Errorf("full-size band empty: %+v", full)
	}
	// The area ceiling must be consistent: area(max) ≤ 1.1·A ≤ area(max+1).
	scaled := pr.Scale(1)
	budget := 1.1 * p.DynamicArea(scaled, 0.75)
	if p.StaticArea(scaled, full.MaxNodes) > budget {
		t.Error("MaxNodes exceeds the area budget")
	}
	if p.StaticArea(scaled, full.MaxNodes+1) <= budget {
		t.Error("MaxNodes not maximal")
	}
}

func TestFitSpeedupRecoversParams(t *testing.T) {
	// Fig. 2: the fit must land within the paper's 15 % error band.
	rng := stats.NewRand(9)
	ms := SynthesizeMeasurements(DefaultParams, rng, 0.05)
	got, err := FitSpeedup(ms)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxRelError(got, ms); e > 0.15 {
		t.Errorf("max relative error %v > 15%%", e)
	}
	// The dominant parameters are recovered closely.
	if math.Abs(got.A-DefaultParams.A)/DefaultParams.A > 0.1 {
		t.Errorf("A = %v, want ≈ %v", got.A, DefaultParams.A)
	}
}

func TestFitSpeedupNoiseless(t *testing.T) {
	rng := stats.NewRand(10)
	ms := SynthesizeMeasurements(DefaultParams, rng, 0)
	got, err := FitSpeedup(ms)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"A": {got.A, DefaultParams.A},
		"B": {got.B, DefaultParams.B},
		"C": {got.C, DefaultParams.C},
		"D": {got.D, DefaultParams.D},
	} {
		if math.Abs(pair[0]-pair[1])/pair[1] > 1e-6 {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
}

func TestFitSpeedupErrors(t *testing.T) {
	if _, err := FitSpeedup(nil); err == nil {
		t.Error("too few measurements should error")
	}
	bad := []Measurement{{1, 10, -1}, {2, 10, 1}, {4, 10, 1}, {8, 10, 1}}
	if _, err := FitSpeedup(bad); err == nil {
		t.Error("negative duration should error")
	}
}

func TestMaxRelErrorZeroForExactModel(t *testing.T) {
	ms := SynthesizeMeasurements(DefaultParams, stats.NewRand(11), 0)
	if e := MaxRelError(DefaultParams, ms); e > 1e-12 {
		t.Errorf("exact model has error %v", e)
	}
}
