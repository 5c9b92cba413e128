package workload

import (
	"testing"

	"coormv2/internal/stats"
)

func TestSynthetic(t *testing.T) {
	rng := stats.NewRand(1)
	jobs := Synthetic(rng, SyntheticConfig{Jobs: 500, MaxNodes: 64, PowerOfTwoBias: 1})
	if len(jobs) != 500 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	prev := -1.0
	for _, j := range jobs {
		if j.Submit < prev {
			t.Fatal("submits not monotone")
		}
		prev = j.Submit
		if j.Nodes < 1 || j.Nodes > 64 {
			t.Fatalf("nodes out of range: %d", j.Nodes)
		}
		if j.Nodes&(j.Nodes-1) != 0 {
			t.Fatalf("bias=1 should force powers of two, got %d", j.Nodes)
		}
		if j.Runtime < 60 {
			t.Fatalf("runtime below floor: %v", j.Runtime)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(stats.NewRand(3), SyntheticConfig{Jobs: 50})
	b := Synthetic(stats.NewRand(3), SyntheticConfig{Jobs: 50})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSyntheticEmpty(t *testing.T) {
	if Synthetic(stats.NewRand(1), SyntheticConfig{}) != nil {
		t.Error("zero jobs should return nil")
	}
}

func TestSummarize(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
		{ID: 2, Submit: 500, Runtime: 100, Nodes: 8},
	}
	s := Summarize(jobs)
	if s.Jobs != 2 || s.TotalArea != 1200 || s.MaxNodes != 8 || s.Makespan != 600 {
		t.Errorf("Stats = %+v", s)
	}
	if z := Summarize(nil); z.Jobs != 0 || z.TotalArea != 0 {
		t.Errorf("empty stats = %+v", z)
	}
}
