// Command bench is the repository's benchmark: four fixed-work workloads
// driven through the program's public packages, seven end-to-end metrics,
// and — on a separate traced run — per-layer metrics measured from outside
// the program. README.md explains every choice.
//
//	bash bench/run.sh                                  every workload, untraced and traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -sets 2 -runs 5 -out /tmp/set    two sets of runs, for -compare
//	bash bench/run.sh -compare /tmp/set1.json /tmp/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
)

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all, untraced then traced)")
		seed       = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds    = flag.Float64("seconds", 0, "run size in seconds of fixed work (default: run_seconds of BENCHMARK.json)")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		specPath   = flag.String("spec", "BENCHMARK.json", "benchmark contract (bounds, run_seconds)")
		spanDir    = flag.String("spans", ".bench_build/spans", "directory for the traced runs' span files")
		recordPath = flag.String("json", "", "also write the full run records to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run")
		sets       = flag.Int("sets", 0, "produce this many sets of runs (with -runs, -out)")
		runs       = flag.Int("runs", 5, "runs per workload in each set")
		out        = flag.String("out", ".bench_build/set", "set files are written to <out><k>.json")
		compare    = flag.Bool("compare", false, "compare two set files given as arguments")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		spec, err := loadSpec(*specPath)
		if err != nil {
			fatal("%v", err)
		}
		ok, err := compareSets(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *seconds <= 0 {
		spec, err := loadSpec(*specPath)
		if err != nil {
			fatal("-seconds not given and %v", err)
		}
		*seconds = float64(spec.RunSeconds)
	}

	if *sets > 0 {
		if err := produceSets(*sets, *runs, *seed, *seconds, *out); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	one := func(w *workloadDef, traced bool) *result {
		if traced {
			return runTraced(w, *seed, *seconds, fmt.Sprintf("%s/%s-seed%d.jsonl", *spanDir, w.name, *seed))
		}
		return runUntraced(w, *seed, *seconds)
	}

	var results []*result
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal("unknown workload %q", *workload)
		}
		results = append(results, one(w, *trace != 0))
	} else {
		for i := range workloads {
			results = append(results, one(&workloads[i], false), one(&workloads[i], true))
		}
	}

	correct := true
	for _, r := range results {
		printResult(os.Stdout, r)
		correct = correct && r.Correct
	}
	if *recordPath != "" {
		if err := writeJSON(*recordPath, results); err != nil {
			fatal("%v", err)
		}
	}
	if *workload != "" {
		// The contract line: the last line of standard output.
		r := results[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.OpsAttempted, "failed": r.OpsFailed, "metrics": r.Metrics,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s\n", line)
	}
	if !correct {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of a run by name with its unit.
func printResult(w *os.File, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s  ops_attempted=%d ops_failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, kind, r.OpsAttempted, r.OpsFailed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "   ERROR: %s\n", r.Error)
	}
	if r.Traced {
		for _, d := range perLayer {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %-6s → %s (%s)\n", d.name, m.Value, m.Unit, d.moves, d.on)
			}
		}
	} else {
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(r.Info[k]) // info values are plain numbers, strings and maps
		fmt.Fprintf(w, "   info %-29s %s\n", k, b)
	}
}
