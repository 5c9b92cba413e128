// Package workload provides a synthetic rigid-job generator. The paper's
// evaluation deliberately focuses on evolving + malleable applications
// ("we shall not evaluate our system against a trace of rigid jobs as is
// commonly done in the community", §5.1), but CooRMv2 supports rigid jobs
// (§4), and the replay experiments mix a synthetic rigid stream in.
package workload

import "math/rand"

// Job is one rigid job: submitted at Submit, asking for Nodes for Runtime
// seconds.
type Job struct {
	ID      int
	Submit  float64 // submission time, seconds from trace start
	Runtime float64 // runtime in seconds
	Nodes   int     // number of nodes requested
}

// SyntheticConfig parametrizes the rigid-job generator.
type SyntheticConfig struct {
	Jobs           int
	MaxNodes       int     // per-job node count upper bound
	MeanInterArr   float64 // exponential inter-arrival mean, seconds
	MeanRuntime    float64 // exponential runtime mean, seconds
	PowerOfTwoBias float64 // probability a job requests a power-of-two node count
}

// minRuntime floors every synthetic runtime, in seconds.
const minRuntime = 60

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
		if rt < minRuntime {
			rt = minRuntime
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
