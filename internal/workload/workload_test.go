package workload

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"coormv2/internal/stats"
)

const sampleSWF = `; Version: 2.2
; Computer: Test Cluster
1 0 10 3600 64 -1 -1 64 3600 -1 1 1 1 -1 1 -1 -1 -1
2 120 5 1800 -1 -1 -1 32 1800 -1 1 2 1 -1 1 -1 -1 -1
3 300 0 0 16 -1 -1 16 600 -1 0 3 1 -1 1 -1 -1 -1
4 60 2 900 8 -1 -1 -1 900 -1 1 4 1 -1 1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	jobs, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 has runtime 0 and is skipped; job 4 falls back to allocated
	// processors (field 5 = 8) because requested is -1.
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	// Sorted by submit time: 1 (0), 4 (60), 2 (120).
	if jobs[0].ID != 1 || jobs[1].ID != 4 || jobs[2].ID != 2 {
		t.Errorf("order = %d %d %d", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
	if jobs[0].Nodes != 64 || jobs[0].Runtime != 3600 {
		t.Errorf("job 1 = %+v", jobs[0])
	}
	if jobs[1].Nodes != 8 {
		t.Errorf("job 4 should fall back to allocated processors: %+v", jobs[1])
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line should error")
	}
	bad := strings.Replace(sampleSWF, "1 0 10", "x 0 10", 1)
	if _, err := ParseSWF(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric job id should error")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := []Job{
		{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
		{ID: 2, Submit: 50, Runtime: 200, Nodes: 8},
	}
	var buf bytes.Buffer
	if err := FormatSWF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip count: %d", len(back))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Errorf("job %d: %+v != %+v", i, back[i], orig[i])
		}
	}
}

// FuzzParseSWF feeds ParseSWF arbitrary bytes — a trace file is untrusted
// input. Whatever it accepts must be usable (finite times, positive sizes,
// submit order) and must survive FormatSWF → ParseSWF unchanged.
func FuzzParseSWF(f *testing.F) {
	f.Add([]byte(sampleSWF))
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("7 0.25 -1 1e3 4 -1 -1 0 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"))
	f.Add([]byte("8 NaN -1 Inf 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ParseSWF(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, j := range jobs {
			if !(j.Runtime > 0) || math.IsInf(j.Runtime, 0) || math.IsNaN(j.Submit) || math.IsInf(j.Submit, 0) || j.Nodes <= 0 {
				t.Fatalf("accepted unusable job %+v", j)
			}
			if i > 0 && jobs[i-1].Submit > j.Submit {
				t.Fatalf("jobs %d and %d out of submit order", i-1, i)
			}
		}
		var buf bytes.Buffer
		if err := FormatSWF(&buf, jobs); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSWF(&buf)
		if err != nil {
			t.Fatalf("FormatSWF wrote what ParseSWF rejects: %v", err)
		}
		if !slices.Equal(back, jobs) {
			t.Fatalf("round trip changed the jobs:\n%+v\n%+v", jobs, back)
		}
	})
}

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
