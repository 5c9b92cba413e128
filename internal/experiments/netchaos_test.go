package experiments

import (
	"testing"
	"time"

	"coormv2/internal/chaos"
	"coormv2/internal/netchaos"
)

func netChaosFaults(seed int64) netchaos.Config {
	return netchaos.Config{
		Seed: seed, MeanBetween: 0.15, MeanDur: 0.04, Horizon: 1.2, MaxFaults: 6,
	}
}

// TestNetChaosResumeLosesNothing pins the headline property: with
// reconnect+resume, a seeded fault schedule costs reconnects but zero
// lost acknowledged requests and zero duplicate starts.
func TestNetChaosResumeLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario")
	}
	res, err := runNetChaos(netChaosConfig{
		Seed: 1, Jobs: 5, Resume: true,
		Faults: netChaosFaults(1),
		Grace:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 {
		t.Fatalf("completed %d/5 jobs", res.Completed)
	}
	if res.LostAcks != 0 {
		t.Fatalf("resume mode lost %d acked requests", res.LostAcks)
	}
	if res.DupStarts != 0 {
		t.Fatalf("%d duplicate starts", res.DupStarts)
	}
	if res.Resubmits != 0 {
		t.Fatalf("resume mode resubmitted %d sessions", res.Resubmits)
	}
}

// TestNetChaosReplayBaselineCompletes pins the baseline: kill-and-replay
// still finishes the workload (by resubmitting), and the fault schedule
// fingerprint is identical to the resume run's — both modes face the
// exact same wire.
func TestNetChaosReplayBaselineCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario")
	}
	res, err := runNetChaos(netChaosConfig{
		Seed: 1, Jobs: 5, Resume: false,
		Faults: netChaosFaults(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 {
		t.Fatalf("completed %d/5 jobs", res.Completed)
	}
	if res.DupStarts != 0 {
		t.Fatalf("%d duplicate starts", res.DupStarts)
	}
	want := chaos.Hash(netchaos.Plan(netChaosFaults(1)))
	if res.TraceHash != want {
		t.Fatalf("trace hash %#x, want %#x (schedule must be seed-stable)", res.TraceHash, want)
	}
}
