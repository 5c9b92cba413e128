package experiments

import (
	"fmt"
	"strconv"

	"coormv2/internal/amr"
	"coormv2/internal/apps"
	"coormv2/internal/core"
	"coormv2/internal/stats"
)

// amrScenario is the §5 scenario at o's scale: one AMR at a target
// efficiency of 75 % plus one PSA per task duration, on a cluster of the
// AMR's pre-allocation size. Figs. 9–11, the PSA ablation and the §7
// accounting table vary it by overcommit, announce interval, preemption
// policy or a PSA switch; Figs. 1–4 read the AMR model directly.
func (o Options) amrScenario(seed int64, overcommit float64, mode apps.NEAMode, announce float64, psaDurs ...float64) ScenarioConfig {
	sc := o.scale()
	return ScenarioConfig{
		Seed: seed, Steps: sc.steps, Smax: sc.smax,
		TargetEff: 0.75, Overcommit: overcommit, Mode: mode,
		AnnounceInterval: announce, PSATaskDurations: psaDurs,
	}
}

// fig1Exp regenerates Fig. 1's AMR working-set evolutions, normalized to the
// paper's 0–1000 scale, for four consecutive seeds.
func fig1Exp(o Options) (*Report, error) {
	steps := o.scale().steps
	rep := &Report{Name: "fig1", Header: []string{"step"}, Rows: make([][]string, steps)}
	for i := range rep.Rows {
		rep.Rows[i] = []string{itoa(i)}
	}
	for seed := o.Seed; seed < o.Seed+4; seed++ {
		rep.Header = append(rep.Header, fmt.Sprintf("seed%d", seed))
		for i, v := range amr.GenerateProfile(stats.NewRand(seed), steps, 1000) {
			rep.Rows[i] = append(rep.Rows[i], fixed(v, 1))
		}
	}
	return rep, nil
}

// fig2Exp synthesizes a measurement grid (documented substitution for the
// unavailable Uintah data), fits the speed-up model and reports the fit per
// (size, nodes) point: the paper's criterion is a maximum relative error
// < 15 %.
func fig2Exp(o Options) (*Report, error) {
	ms := amr.SynthesizeMeasurements(amr.DefaultParams, stats.NewRand(o.Seed), 0.05)
	fitted, err := amr.FitSpeedup(ms)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Name: "fig2",
		Notes: []string{
			fmt.Sprintf("fitted: A=%.4g B=%.4g C=%.4g D=%.4g (paper: A=7.26e-3 B=1.23e-4 C=1.13e-6 D=1.38)",
				fitted.A, fitted.B, fitted.C, fitted.D),
			fmt.Sprintf("max relative error: %.2f%% (paper: <15%%)", 100*amr.MaxRelError(fitted, ms)),
		},
		Header: []string{"nodes", "size-GiB", "measured-s", "model-s"},
	}
	for _, m := range ms {
		rep.Rows = append(rep.Rows, []string{
			itoa(m.Nodes), fixed(m.SizeMiB/1024, 0), fixed(m.Duration, 3), fixed(fitted.StepTime(m.Nodes, m.SizeMiB), 3),
		})
	}
	return rep, nil
}

// fig3Exp sweeps the target efficiency and reports the end-time increase when
// the equivalent static allocation replaces the dynamic one (§2.3: "the
// end-time of the application increases with at most 2.5%").
func fig3Exp(o Options) (*Report, error) {
	p := amr.DefaultParams
	pr := amr.GenerateProfile(stats.NewRand(o.Seed), o.scale().steps, amr.DefaultSmax)
	rep := &Report{Name: "fig3", Header: []string{"target-eff", "n_eq", "end-time-increase-%"}}
	for _, et := range stats.Linspace(0.1, 0.9, 17) {
		neq, _ := p.EquivalentStatic(pr, et)
		rep.Rows = append(rep.Rows, []string{fixed(et, 2), itoa(neq), fixed(100*p.EndTimeIncrease(pr, et), 3)})
	}
	return rep, nil
}

// fig4Exp sweeps relative data sizes (1/8 … 8, as in the paper) and reports,
// for each, the static node-count band that neither runs out of memory nor
// exceeds 110 % of A(75 %).
func fig4Exp(o Options) (*Report, error) {
	p := amr.DefaultParams
	pr := amr.GenerateProfile(stats.NewRand(o.Seed), o.scale().steps, amr.DefaultSmax)
	rep := &Report{Name: "fig4", Header: []string{"rel-size", "min-nodes(mem)", "max-nodes(area)", "feasible"}}
	for _, r := range []float64{0.125, 0.25, 0.5, 1, 2, 4, 8} {
		c := p.StaticChoiceRange(pr, 0.75, amr.DefaultNodeMemoryMiB, r)
		rep.Rows = append(rep.Rows, []string{sig(r), itoa(c.MinNodes), itoa(c.MaxNodes), strconv.FormatBool(c.Feasible)})
	}
	return rep, nil
}

// fig9Exp reproduces §5.2: one AMR + one PSA; the AMR is scheduled statically
// (forced to use its whole pre-allocation) and dynamically (CooRMv2), and the
// PSA's waste is that of the dynamic run.
func fig9Exp(o Options) (*Report, error) {
	psa := o.scale().psa1
	rep := &Report{Name: "fig9", Header: []string{"overcommit", "nodes", "static-node·s", "dynamic-node·s", "psa-waste-node·s"}}
	for _, over := range stats.Logspace(0.1, 10, 9) {
		dyn, err := RunScenario(o.amrScenario(o.Seed, over, apps.NEADynamic, 0, psa))
		if err != nil {
			return nil, fmt.Errorf("fig9 overcommit=%g dynamic: %w", over, err)
		}
		stat, err := RunScenario(o.amrScenario(o.Seed, over, apps.NEAStatic, 0, psa))
		if err != nil {
			return nil, fmt.Errorf("fig9 overcommit=%g static: %w", over, err)
		}
		rep.Rows = append(rep.Rows, []string{fixed(over, 3), itoa(dyn.Nodes), sig(stat.AMRArea), sig(dyn.AMRArea), sig(dyn.PSAWaste[0])})
	}
	return rep, nil
}

// fig10Exp reproduces §5.3: at κ = 1 the AMR uses announced updates with
// increasing notice; waste falls to zero once the notice exceeds d_task, at
// the cost of a longer AMR run than the spontaneous (first) one.
func fig10Exp(o Options) (*Report, error) {
	sc := o.scale()
	rep := &Report{Name: "fig10", Header: []string{"announce-s", "amr-endtime-increase-%", "psa-waste-%", "used-resources-%"}}
	var baseline float64
	for i, ann := range sc.announces {
		res, err := RunScenario(o.amrScenario(o.Seed, 1, apps.NEADynamic, ann, sc.psa1))
		if err != nil {
			return nil, fmt.Errorf("fig10 announce=%g: %w", ann, err)
		}
		if i == 0 {
			baseline = res.AMRRuntime
		}
		wastePct := 0.0
		if res.PSAArea[0] > 0 {
			wastePct = 100 * res.PSAWaste[0] / res.PSAArea[0]
		}
		rep.Rows = append(rep.Rows, []string{
			fixed(ann, 0), fixed(100*(res.AMRRuntime/baseline-1), 2), fixed(wastePct, 2), fixed(100*res.UsedFraction, 2),
		})
	}
	return rep, nil
}

// fig11Exp reproduces §5.4: a second PSA with a smaller task duration fills
// the holes the first PSA cannot use — but only when the RMS lets it
// (filling policy); medians across the scale's seeds, as in the paper.
func fig11Exp(o Options) (*Report, error) {
	sc := o.scale()
	rep := &Report{Name: "fig11", Header: []string{"announce-s", "filling-used-%", "strict-used-%"}}
	for _, ann := range sc.announces {
		usedPct := map[core.PreemptPolicy][]float64{}
		for _, s := range sc.seeds {
			seed := s + o.Seed - 1
			for _, policy := range []core.PreemptPolicy{core.EquiPartitionFilling, core.StrictEquiPartition} {
				cfg := o.amrScenario(seed, 1, apps.NEADynamic, ann, sc.psa1, sc.psa2)
				cfg.Policy = policy
				res, err := RunScenario(cfg)
				if err != nil {
					return nil, fmt.Errorf("fig11 announce=%g seed=%d policy=%v: %w", ann, seed, policy, err)
				}
				usedPct[policy] = append(usedPct[policy], 100*res.UsedFraction)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fixed(ann, 0), fixed(stats.Median(usedPct[core.EquiPartitionFilling]), 2), fixed(stats.Median(usedPct[core.StrictEquiPartition]), 2),
		})
	}
	return rep, nil
}

// ablationExp quantifies the two PSA-side design choices that make announced
// updates pay off (§5.3–5.4):
//
//  1. graceful release (waiting for task completions instead of killing),
//  2. window-aware resource selection (§4: claim a node only when its
//     availability window fits at least one task).
//
// Each variant runs the Fig. 10 scenario (κ = 1, notice d_task/2) with one
// mechanism disabled.
func ablationExp(o Options) (*Report, error) {
	psa := o.scale().psa1
	rep := &Report{Name: "ablation", Header: []string{"variant", "psa-waste-node·s", "used-%", "amr-runtime-s"}}
	for _, v := range []struct {
		name string
		mod  func(p *apps.PSA)
	}{
		{"full (graceful + window-aware)", nil},
		{"no graceful release", func(p *apps.PSA) { p.SetNoGraceful(true) }},
		{"no window selection", func(p *apps.PSA) { p.SetIgnoreWindows(true) }},
		{"neither", func(p *apps.PSA) { p.SetNoGraceful(true); p.SetIgnoreWindows(true) }},
	} {
		cfg := o.amrScenario(o.Seed, 1, apps.NEADynamic, psa/2, psa)
		cfg.PSAHook = v.mod
		res, err := RunScenario(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		rep.Rows = append(rep.Rows, []string{v.name, sig(res.PSAWaste[0]), fixed(100*res.UsedFraction, 2), fixed(res.AMRRuntime, 0)})
	}
	return rep, nil
}

// accountingExp runs the κ = 2 scenario with a static and a dynamic AMR and
// reports per-application accounting (the paper's first "future work" item,
// §7: "study how accounting should be done in CooRMv2, so as to determine
// users to efficiently use resources"). With a charging model of used +
// α·reserved-idle (the reservation left unused), a dynamic NEA pays mostly
// for what it computes while its idle reservation does PSA work, whereas a
// static one burns its whole over-sized guess — CooRMv2 makes the efficient
// behaviour the cheap one.
func accountingExp(o Options) (*Report, error) {
	psa := o.scale().psa1
	rep := &Report{Name: "accounting", Header: []string{"application", "used-node·s", "pre-alloc-node·s", "reserved-idle-node·s", "waste-node·s"}}
	for _, mode := range []struct {
		name string
		m    apps.NEAMode
	}{
		{"AMR static", apps.NEAStatic},
		{"AMR dynamic", apps.NEADynamic},
	} {
		res, err := RunScenario(o.amrScenario(o.Seed, 2, mode.m, 0, psa))
		if err != nil {
			return nil, fmt.Errorf("accounting %s: %w", mode.name, err)
		}
		idle := max(res.AMRPreAllocArea-res.AMRArea, 0)
		rep.Rows = append(rep.Rows,
			[]string{mode.name, sig(res.AMRArea), sig(res.AMRPreAllocArea), sig(idle), sig(0)},
			[]string{mode.name + " / PSA", sig(res.PSAArea[0]), sig(0), sig(0), sig(res.PSAWaste[0])})
	}
	return rep, nil
}
