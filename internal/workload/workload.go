// Package workload provides rigid-job workload tooling: a parser for the
// Standard Workload Format (SWF) used by the Parallel Workloads Archive the
// paper cites [20], and a synthetic rigid-job generator. The paper's
// evaluation deliberately focuses on evolving + malleable applications
// ("we shall not evaluate our system against a trace of rigid jobs as is
// commonly done in the community", §5.1), but CooRMv2 supports rigid jobs
// (§4), and this package lets users replay them.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Job is one rigid job: submitted at Submit, asking for Nodes for Runtime
// seconds.
type Job struct {
	ID      int
	Submit  float64 // submission time, seconds from trace start
	Runtime float64 // requested/actual runtime in seconds
	Nodes   int     // number of processors requested
}

// ParseSWF reads jobs from a Standard Workload Format trace. SWF lines have
// 18 whitespace-separated fields; lines starting with ';' are header
// comments. The fields used here are: 1 job number, 2 submit time,
// 4 run time, 8 requested processors (falling back to field 5, allocated
// processors, when the request is absent). Jobs with non-positive runtime
// or processor count are skipped, as is customary when replaying SWF; a
// submit or run time that is not a finite number is an error.
func ParseSWF(r io.Reader) ([]Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var jobs []Job
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 18 {
			return nil, fmt.Errorf("workload: line %d: %d fields, SWF needs 18", line, len(fields))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: job number: %w", line, err)
		}
		submit, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: submit time: %w", line, err)
		}
		runtime, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: run time: %w", line, err)
		}
		for _, x := range [2]float64{submit, runtime} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("workload: line %d: submit %v, run time %v: not finite", line, submit, runtime)
			}
		}
		procs, err := strconv.Atoi(fields[7])
		if err != nil || procs <= 0 {
			// Fall back to allocated processors.
			procs, err = strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: processors: %w", line, err)
			}
		}
		if runtime <= 0 || procs <= 0 {
			continue
		}
		jobs = append(jobs, Job{ID: id, Submit: submit, Runtime: runtime, Nodes: procs})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	return jobs, nil
}

// FormatSWF writes jobs back out as a minimal SWF trace (unused fields are
// -1, per the format's convention). Times are written in full, so ParseSWF
// reads back exactly the jobs written (FuzzParseSWF).
func FormatSWF(w io.Writer, jobs []Job) error {
	bw := bufio.NewWriter(w)
	sec := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	fmt.Fprintln(bw, "; SWF trace written by coormv2/internal/workload")
	for _, j := range jobs {
		// 18 fields: id submit wait run usedProc avgCPU usedMem reqProc
		// reqTime reqMem status uid gid app queue partition prevJob think
		if _, err := fmt.Fprintf(bw, "%d %s -1 %s %d -1 -1 %d %s -1 1 -1 -1 -1 -1 -1 -1 -1\n",
			j.ID, sec(j.Submit), sec(j.Runtime), j.Nodes, j.Nodes, sec(j.Runtime)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SyntheticConfig parametrizes the rigid-job generator.
type SyntheticConfig struct {
	Jobs           int
	MaxNodes       int     // per-job node count upper bound
	MeanInterArr   float64 // exponential inter-arrival mean, seconds
	MeanRuntime    float64 // exponential runtime mean, seconds
	MinRuntime     float64 // floor for runtimes (default 60 s)
	PowerOfTwoBias float64 // probability a job requests a power-of-two node count
}

// Synthetic generates a reproducible rigid-job stream with exponential
// inter-arrivals and runtimes, the standard shape of supercomputer logs.
func Synthetic(rng *rand.Rand, cfg SyntheticConfig) []Job {
	if cfg.Jobs <= 0 {
		return nil
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 128
	}
	if cfg.MeanInterArr <= 0 {
		cfg.MeanInterArr = 300
	}
	if cfg.MeanRuntime <= 0 {
		cfg.MeanRuntime = 3600
	}
	if cfg.MinRuntime <= 0 {
		cfg.MinRuntime = 60
	}
	jobs := make([]Job, 0, cfg.Jobs)
	t := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		t += rng.ExpFloat64() * cfg.MeanInterArr
		n := 1 + rng.Intn(cfg.MaxNodes)
		if rng.Float64() < cfg.PowerOfTwoBias {
			p := 1
			for p*2 <= n {
				p *= 2
			}
			n = p
		}
		rt := rng.ExpFloat64() * cfg.MeanRuntime
		if rt < cfg.MinRuntime {
			rt = cfg.MinRuntime
		}
		jobs = append(jobs, Job{ID: i + 1, Submit: t, Runtime: rt, Nodes: n})
	}
	return jobs
}

// Stats summarizes a job stream.
type Stats struct {
	Jobs      int
	TotalArea float64 // Σ nodes × runtime
	MaxNodes  int
	Makespan  float64 // last submit + its runtime (lower bound)
}

// Summarize computes aggregate statistics of a job stream.
func Summarize(jobs []Job) Stats {
	var s Stats
	s.Jobs = len(jobs)
	for _, j := range jobs {
		s.TotalArea += float64(j.Nodes) * j.Runtime
		if j.Nodes > s.MaxNodes {
			s.MaxNodes = j.Nodes
		}
		if end := j.Submit + j.Runtime; end > s.Makespan {
			s.Makespan = end
		}
	}
	return s
}
