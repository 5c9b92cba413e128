// Command coorm-exp regenerates the data behind every quantitative figure
// of the paper's evaluation. Output is gnuplot-friendly: a "# "-prefixed
// header line followed by aligned columns.
//
// Usage:
//
//	coorm-exp -exp fig3                  # one figure, reduced scale
//	coorm-exp -exp fig9 -full            # paper-scale (1000 steps, 3.16 TiB)
//	coorm-exp -exp all -full -seed 42
//	coorm-exp -exp chaos -report json    # any experiment as a JSON report
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coormv2/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the selected
// experiments in table order and returns the exit code (2 for a usage
// error, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments.Experiments))
	for i, x := range experiments.Experiments {
		names[i] = x.Name
	}
	o := experiments.DefaultOptions()
	fs := flag.NewFlagSet("coorm-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	report := fs.String("report", "text", "output: text (notes + aligned table) or json (full report incl. obs snapshot where collected)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "base random seed")
	fs.BoolVar(&o.Full, "full", o.Full, "paper scale (1000 steps, 3.16 TiB) instead of the fast reduced scale")
	fs.IntVar(&o.Steps, "steps", o.Steps, "override profile length (0 = scale default)")
	fs.IntVar(&o.Shards, "shards", o.Shards, "shard count (federated: maximum, swept in powers of two)")
	fs.Float64Var(&o.CrashRate, "crash-rate", o.CrashRate, "chaos: expected crashes per shard per simulated hour (0 disables faults)")
	fs.Float64Var(&o.RestartDelay, "restart-delay", o.RestartDelay, "chaos: mean shard restart delay in simulated seconds")
	fs.Float64Var(&o.NodeMTTF, "node-mttf", o.NodeMTTF, "nodechaos: per-cluster mean time between machine failures in simulated seconds (0 disables)")
	fs.Float64Var(&o.NodeRepair, "node-repair", o.NodeRepair, "nodechaos: mean machine repair time in simulated seconds")
	fs.IntVar(&o.ClustersPerShard, "clusters-per-shard", o.ClustersPerShard, "rebalance: clusters initially partitioned onto each shard")
	fs.Float64Var(&o.HotFrac, "hot-frac", o.HotFrac, "rebalance: fraction of the trace pinned to shard 0's clusters")
	fs.Float64Var(&o.RebalanceInterval, "rebalance-interval", o.RebalanceInterval, "rebalance: seconds between load checks")
	fs.Float64Var(&o.SkewRatio, "skew-ratio", o.SkewRatio, "rebalance: migrate when the hottest shard exceeds this ratio of the coldest")
	fs.Float64Var(&o.GangFrac, "gang-frac", o.GangFrac, "gang: fraction of jobs given a cross-shard companion leg")
	fs.IntVar(&o.Tenants, "tenants", o.Tenants, "tenants: tenant-queue count (t0 guaranteed, t1 hot)")
	fs.Float64Var(&o.TenantHotFrac, "tenant-hot-frac", o.TenantHotFrac, "tenants: fraction of the trace submitted by the hot best-effort tenant")
	fs.IntVar(&o.NetJobs, "net-jobs", o.NetJobs, "netchaos: sequential jobs driven over the faulty wire")
	fs.Float64Var(&o.NetFaultGap, "net-fault-gap", o.NetFaultGap, "netchaos: mean wall-clock seconds between wire faults")
	fs.Float64Var(&o.NetHorizon, "net-horizon", o.NetHorizon, "netchaos: wall-clock fault-schedule horizon in seconds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *report != "text" && *report != "json" {
		fmt.Fprintf(stderr, "coorm-exp: unknown -report format %q (want text or json)\n", *report)
		return 2
	}

	matched := false
	for _, x := range experiments.Experiments {
		if *exp != "all" && *exp != x.Name {
			continue
		}
		matched = true
		fmt.Fprintf(stdout, "== %s ==\n", x.Title)
		rep, err := x.Run(o)
		if err != nil {
			fmt.Fprintf(stderr, "coorm-exp: %s: %v\n", x.Title, err)
			return 1
		}
		// The text table and the JSON export come from the same Report, so
		// the two can never disagree.
		out := []byte(rep.Text())
		if *report == "json" {
			if out, err = rep.JSON(); err != nil {
				fmt.Fprintf(stderr, "coorm-exp: %s: %v\n", x.Title, err)
				return 1
			}
		}
		if _, err := stdout.Write(append(out, '\n')); err != nil {
			fmt.Fprintf(stderr, "coorm-exp: %v\n", err)
			return 1
		}
	}
	if !matched {
		fmt.Fprintf(stderr, "coorm-exp: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}
