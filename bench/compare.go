package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// produceSets writes nSets files of runs: every workload untraced, run
// times each, with seeds seed, seed+1, …. Each run is a fresh process, as
// the acceptance driver's are, and the sets are interleaved so slow drift
// of the box lands on all of them alike.
func produceSets(nSets, runs int, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	tmp := out + ".run.json"
	defer os.Remove(tmp)
	sets := make([][]*result, nSets)
	for i := 0; i < runs; i++ {
		for k := range sets {
			for _, w := range workloads {
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-json", tmp)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
				}
				rs, err := readResults(tmp)
				if err != nil {
					return err
				}
				sets[k] = append(sets[k], rs...)
				r := rs[0]
				fmt.Printf("set %d run %d %-13s", k+1, i+1, w.name)
				for _, d := range endToEnd {
					fmt.Printf(" %s=%.4g", d.name, r.Metrics[d.name].Value)
				}
				fmt.Println()
			}
		}
	}
	for k, rs := range sets {
		if err := writeJSON(fmt.Sprintf("%s%d.json", out, k+1), rs); err != nil {
			return err
		}
	}
	return nil
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareSets prints, per (workload, end-to-end metric), both sets' medians
// and quartiles, how much worse B is than A, and the metric's bound. A pair
// whose own run-to-run spread (interquartile range over median) exceeds the
// bound is unresolved — the sets cannot tell it from unchanged. It returns
// false when B is worse than A by more than a bound, or when runs of one
// commit and seed disagree on their deterministic outputs.
func compareSets(w io.Writer, spec *benchmarkSpec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true

	// Deterministic outputs: equal within one commit, workload, seed, size.
	seen := map[string]string{}
	for _, r := range append(append([]*result(nil), a...), b...) {
		if !r.Correct {
			fmt.Fprintf(w, "INCORRECT  %s seed %d: %s\n", r.Workload, r.Seed, r.Error)
			ok = false
		}
		hash, _ := r.Info["event_hash"].(string)
		if hash == "" {
			continue
		}
		replay, _ := json.Marshal(r.Info["replay"]) // nil marshals to "null"
		key := fmt.Sprintf("%s %s seed %d size %g", r.Box.GitRev, r.Workload, r.Seed, r.Seconds)
		val := hash + " " + string(replay)
		if prev, dup := seen[key]; dup && prev != val {
			fmt.Fprintf(w, "NONDETERMINISTIC  %s: %s vs %s\n", key, prev, val)
			ok = false
		}
		seen[key] = val
	}

	values := func(rs []*result, workload, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, has := r.Metrics[name]; has && r.Workload == workload && !r.Traced {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-13s %-19s %31s %31s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] spread", "B median [q1, q3] spread", "B worse", "bound", "verdict")
	unresolved := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: missing from a set", wl.Name, m.Name)
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "OUT OF BOUND"
				ok = false
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-13s %-19s %9.4g [%8.4g, %8.4g] %4.1f%% %9.4g [%8.4g, %8.4g] %4.1f%% %+7.1f%% %5.1f%%  %s\n",
				wl.Name, m.Name, a2, a1, a3, 100*spreadA, b2, b1, b3, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d runs in A, %d in B; %d pairs unresolved (spread wider than the bound)\n", len(a), len(b), unresolved)
	return ok, nil
}
