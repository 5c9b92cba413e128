// Command amr-profile explores the AMR application model of §2: it prints
// generated working-set evolutions (Fig. 1), speed-up curves (Fig. 2), and
// the derived per-profile quantities (n_eq, A(e_t), target allocations).
//
// Usage:
//
//	amr-profile -seed 7                 # one profile + its analysis
//	amr-profile -seed 7 -series        # full 1000-step series, gnuplot columns
//	amr-profile -speedup               # model curves for the Fig. 2 sizes
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"coormv2/internal/amr"
	"coormv2/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the selected
// output and returns the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amr-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 1, "profile seed")
		series  = fs.Bool("series", false, "print the normalized evolution series")
		speedup = fs.Bool("speedup", false, "print speed-up model curves for the Fig. 2 sizes")
		eff     = fs.Float64("eff", 0.75, "target efficiency for the analysis, in (0, 1]")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !(*eff > 0 && *eff <= 1) { // NaN fails both comparisons
		fmt.Fprintf(stderr, "amr-profile: -eff %v: want a target efficiency in (0, 1]\n", *eff)
		return 2
	}

	p := amr.DefaultParams
	if *speedup {
		fmt.Fprintln(stdout, "# nodes  then one step-duration column per mesh size (GiB):")
		fmt.Fprint(stdout, "# nodes")
		for _, s := range amr.Fig2Sizes {
			fmt.Fprintf(stdout, "  %gGiB", s/1024)
		}
		fmt.Fprintln(stdout)
		for _, n := range amr.Fig2Nodes {
			fmt.Fprintf(stdout, "%7d", n)
			for _, s := range amr.Fig2Sizes {
				fmt.Fprintf(stdout, "  %8.3f", p.StepTime(n, s))
			}
			fmt.Fprintln(stdout)
		}
		return 0
	}

	pr := amr.GenerateProfile(stats.NewRand(*seed), amr.ProfileSteps, amr.DefaultSmax)
	if *series {
		fmt.Fprintln(stdout, "# step  normalized-size(0-1000)")
		for i, s := range pr {
			fmt.Fprintf(stdout, "%4d  %8.2f\n", i, s/amr.DefaultSmax*1000)
		}
		return 0
	}

	neq, relErr := p.EquivalentStatic(pr, *eff)
	fmt.Fprintf(stdout, "profile seed %d (%d steps, S_max = %.0f MiB = %.2f TiB)\n",
		*seed, len(pr), amr.DefaultSmax, amr.DefaultSmax/1024/1024)
	fmt.Fprintf(stdout, "target efficiency:        %.0f%%\n", 100**eff)
	fmt.Fprintf(stdout, "dynamic area A(e_t):      %.4g node·s\n", p.DynamicArea(pr, *eff))
	fmt.Fprintf(stdout, "dynamic end-time:         %.0f s\n", p.DynamicEndTime(pr, *eff))
	fmt.Fprintf(stdout, "equivalent static n_eq:   %d nodes (area error %.4f%%)\n", neq, 100*relErr)
	fmt.Fprintf(stdout, "static end-time (n_eq):   %.0f s (+%.2f%%)\n",
		p.StaticEndTime(pr, neq), 100*p.EndTimeIncrease(pr, *eff))
	fmt.Fprintf(stdout, "peak target allocation:   %d nodes\n", p.NodesForEfficiency(pr.Max(), *eff))
	choice := p.StaticChoiceRange(pr, *eff, amr.DefaultNodeMemoryMiB, 1)
	fmt.Fprintf(stdout, "static choice band:       [%d, %d] nodes (memory floor @ %d MiB/node, 110%% area ceiling)\n",
		choice.MinNodes, choice.MaxNodes, int(amr.DefaultNodeMemoryMiB))
	return 0
}
