// two-psas: the resource-filling experiment of §5.4 as a runnable program.
//
// Two parameter-sweep applications share the leftovers of an AMR
// application: PSA1 runs long tasks (600 s) and cannot exploit short
// availability windows; PSA2 runs short tasks (60 s) and can. Under
// CooRMv2's equi-partitioning *with filling*, PSA2 picks up what PSA1
// declines; under the strict-equi-partitioning baseline it may not.
//
// Run with: go run ./examples/two-psas [-announce 300]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the comparison
// and returns the exit code (2 for a usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("two-psas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		announce = fs.Float64("announce", 300, "AMR announce interval in seconds")
		seed     = fs.Int64("seed", 1, "AMR profile seed")
		steps    = fs.Int("steps", 200, "AMR profile length (paper: 1000)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fmt.Fprintf(stdout, "One AMR (announce %gs) + PSA1 (d_task 600 s) + PSA2 (d_task 60 s)\n\n", *announce)

	for _, policy := range []core.PreemptPolicy{
		core.StrictEquiPartition,
		core.EquiPartitionFilling,
	} {
		res, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: *seed, Steps: *steps,
			TargetEff: 0.75, Overcommit: 1, Mode: apps.NEADynamic,
			AnnounceInterval: *announce,
			PSATaskDurations: []float64{600, 60},
			Policy:           policy,
		})
		if err != nil {
			fmt.Fprintf(stderr, "two-psas: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s:\n", policy)
		fmt.Fprintf(stdout, "  PSA1 (600s tasks): %10.0f node·s useful, %6.0f wasted\n",
			res.PSAArea[0]-res.PSAWaste[0], res.PSAWaste[0])
		fmt.Fprintf(stdout, "  PSA2 ( 60s tasks): %10.0f node·s useful, %6.0f wasted\n",
			res.PSAArea[1]-res.PSAWaste[1], res.PSAWaste[1])
		fmt.Fprintf(stdout, "  used resources:    %10.2f%%\n\n", 100*res.UsedFraction)
	}
	fmt.Fprintln(stdout, "Filling lets the short-task PSA exploit the holes the long-task PSA")
	fmt.Fprintln(stdout, "declines, which is exactly the gain Fig. 11 of the paper reports.")
	return 0
}
