// amr-psa: the evaluation scenario of §5.2 as a runnable program — one
// synthetic AMR application (non-predictably evolving, sure execution) and
// one parameter-sweep application on a simulated cluster, with the AMR
// scheduled both statically and dynamically so the CooRMv2 gain is visible.
//
// Run with: go run ./examples/amr-psa [-overcommit 2] [-announce 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"coormv2/internal/apps"
	"coormv2/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the comparison
// and returns the exit code (2 for a usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amr-psa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		overcommit = fs.Float64("overcommit", 2, "pre-allocation / n_eq ratio (§5.1.1)")
		announce   = fs.Float64("announce", 0, "announce interval in seconds (0 = spontaneous updates)")
		seed       = fs.Int64("seed", 1, "AMR profile seed")
		steps      = fs.Int("steps", 200, "AMR profile length (paper: 1000)")
		taskDur    = fs.Float64("task", 600, "PSA task duration d_task in seconds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !(*taskDur > 0) { // NaN included
		fmt.Fprintf(stderr, "amr-psa: -task %v: want a positive PSA task duration\n", *taskDur)
		return 2
	}

	base := experiments.ScenarioConfig{
		Seed: *seed, Steps: *steps,
		TargetEff: 0.75, Overcommit: *overcommit,
		AnnounceInterval: *announce,
		PSATaskDurations: []float64{*taskDur},
	}

	fmt.Fprintf(stdout, "AMR + PSA on one cluster, overcommit %.2g, announce %gs, d_task %gs\n\n",
		*overcommit, *announce, *taskDur)

	type outcome struct {
		name string
		res  *experiments.ScenarioResult
	}
	var results []outcome
	for _, mode := range []struct {
		name string
		m    apps.NEAMode
	}{
		{"static (baseline: AMR holds its whole pre-allocation)", apps.NEAStatic},
		{"dynamic (CooRMv2: AMR allocates only what each step needs)", apps.NEADynamic},
	} {
		cfg := base
		cfg.Mode = mode.m
		res, err := experiments.RunScenario(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "amr-psa: %v\n", err)
			return 1
		}
		results = append(results, outcome{mode.name, res})
	}

	for _, o := range results {
		r := o.res
		fmt.Fprintf(stdout, "%s\n", o.name)
		fmt.Fprintf(stdout, "  cluster: %d nodes (n_eq = %d)\n", r.Nodes, r.Neq)
		fmt.Fprintf(stdout, "  AMR consumed:   %12.0f node·s over %0.f s\n", r.AMRArea, r.AMRRuntime)
		fmt.Fprintf(stdout, "  PSA useful:     %12.0f node·s (waste %0.f node·s)\n",
			r.PSAArea[0]-r.PSAWaste[0], r.PSAWaste[0])
		fmt.Fprintf(stdout, "  used resources: %11.2f%%\n\n", 100*r.UsedFraction)
	}

	stat, dyn := results[0].res, results[1].res
	if dyn.AMRArea < stat.AMRArea {
		fmt.Fprintf(stdout, "CooRMv2 saves the AMR %.0f node·s (%.1fx) versus the static allocation;\n",
			stat.AMRArea-dyn.AMRArea, stat.AMRArea/dyn.AMRArea)
		fmt.Fprintln(stdout, "the freed resources ran PSA tasks instead of idling inside the reservation.")
	}
	return 0
}
