// Package amr implements the paper's model of a non-predictably evolving
// application (§2), derived from Adaptive Mesh Refinement codes:
//
//   - the "acceleration–deceleration" working-set evolution model (§2.1),
//   - the speed-up model t(n,S) = A·S/n + B·n + C·S + D (§2.2), with the
//     parameter values fitted against Uintah measurements (Luitjens &
//     Berzins, IPDPS 2010),
//   - the analysis of §2.3: target-efficiency allocations, the consumed
//     resource area A(e_t), and the equivalent static allocation n_eq.
//
// Data sizes are in MiB, times in seconds, throughout.
package amr

import (
	"fmt"
	"math"
	"math/rand"
)

// SpeedupParams are the coefficients of the step-duration model
// t(n,S) = A·S/n + B·n + C·S + D (§2.2):
// A is the perfectly parallelisable work per MiB, B the per-node
// parallelization overhead, C the per-MiB per-node cost limiting weak
// scaling, and D a constant term.
type SpeedupParams struct {
	A float64 // s·node/MiB
	B float64 // s/node
	C float64 // s/MiB
	D float64 // s
}

// DefaultParams are the values fitted in the paper (§2.2):
// A = 7.26e−3 s·node/MiB, B = 1.23e−4 s/node, C = 1.13e−6 s/MiB,
// D = 1.38 s.
var DefaultParams = SpeedupParams{A: 7.26e-3, B: 1.23e-4, C: 1.13e-6, D: 1.38}

// DefaultSmax is the paper's maximum data size, 3.16 TiB in MiB.
const DefaultSmax = 3.16 * 1024 * 1024 // MiB

// ProfileSteps is the number of computation steps in the evolution model
// (§2.1: "the application is composed of 1000 steps").
const ProfileSteps = 1000

// StepTime returns the duration of one step on n nodes with data size s
// (MiB). n must be >= 1.
func (p SpeedupParams) StepTime(n int, s float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("amr: StepTime with n=%d", n))
	}
	return p.A*s/float64(n) + p.B*float64(n) + p.C*s + p.D
}

// SeqTime returns the sequential duration t(1, s) of one step.
func (p SpeedupParams) SeqTime(s float64) float64 { return p.StepTime(1, s) }

// Efficiency returns e(n,s) = t(1,s) / (n · t(n,s)), the parallel
// efficiency of a step.
func (p SpeedupParams) Efficiency(n int, s float64) float64 {
	return p.SeqTime(s) / (float64(n) * p.StepTime(n, s))
}

// NodesForEfficiency returns the largest node count whose efficiency is at
// least et for data size s. Since n·t(n,s) is strictly increasing in n, the
// efficiency is strictly decreasing and the answer is well-defined; it is
// at least 1 (a single node always has efficiency 1).
func (p SpeedupParams) NodesForEfficiency(s, et float64) int {
	if et <= 0 {
		panic("amr: target efficiency must be positive")
	}
	if p.Efficiency(1, s) < et {
		return 1
	}
	// Exponential search for an upper bound, then binary search.
	hi := 2
	for p.Efficiency(hi, s) >= et {
		hi *= 2
		if hi > 1<<24 {
			break
		}
	}
	lo := hi / 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.Efficiency(mid, s) >= et {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Profile is a working-set evolution: the data size (MiB) during each step.
type Profile []float64

// GenerateProfile implements the acceleration–deceleration model of §2.1:
// the mesh size s_i evolves with a velocity v_i; phases of uniformly random
// length in [1, 200] steps alternate between acceleration (v += 0.01 per
// step) and deceleration (v *= 0.95 per step); Gaussian noise with σ = 2
// (on the paper's 0–1000 normalized scale) is added; finally the series is
// normalized so its maximum equals smax.
func GenerateProfile(rng *rand.Rand, steps int, smax float64) Profile {
	if steps <= 0 {
		panic("amr: steps must be positive")
	}
	raw := make([]float64, steps)
	v, cur := 0.0, 0.0
	phase := 0
	phaseLeft := 1 + rng.Intn(200)
	for i := range raw {
		if phaseLeft == 0 {
			phase++
			phaseLeft = 1 + rng.Intn(200)
		}
		if phase%2 == 0 {
			v += 0.01
		} else {
			v *= 0.95
		}
		cur += v
		raw[i] = cur
		phaseLeft--
	}
	// Normalize to the paper's 0–1000 scale, add the σ=2 noise there, then
	// rescale to smax.
	max := 0.0
	for _, x := range raw {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		max = 1
	}
	out := make(Profile, steps)
	peak := 0.0
	for i, x := range raw {
		s := x/max*1000 + rng.NormFloat64()*2
		if s < 0 {
			s = 0
		}
		out[i] = s
		if s > peak {
			peak = s
		}
	}
	if peak == 0 {
		peak = 1
	}
	for i := range out {
		out[i] = out[i] / peak * smax
	}
	return out
}

// Max returns the peak data size of the profile.
func (pr Profile) Max() float64 {
	m := 0.0
	for _, s := range pr {
		if s > m {
			m = s
		}
	}
	return m
}

// Scale returns a copy of the profile scaled by factor (used by Fig. 4's
// relative data sizes).
func (pr Profile) Scale(factor float64) Profile {
	out := make(Profile, len(pr))
	for i, s := range pr {
		out[i] = s * factor
	}
	return out
}

// DynamicAllocation returns, per step, the node count that keeps the
// application at target efficiency et (§2.3): "one does not need any a
// priori knowledge of the size of the data, as n_i only depends on the
// current S_i".
func (p SpeedupParams) DynamicAllocation(pr Profile, et float64) []int {
	out := make([]int, len(pr))
	for i, s := range pr {
		out[i] = p.NodesForEfficiency(s, et)
	}
	return out
}

// DynamicArea returns A(e_t): the consumed resource area (node·seconds) of
// the dynamic allocation at target efficiency et.
func (p SpeedupParams) DynamicArea(pr Profile, et float64) float64 {
	area := 0.0
	for i, n := range p.DynamicAllocation(pr, et) {
		area += float64(n) * p.StepTime(n, pr[i])
	}
	return area
}

// DynamicEndTime returns the makespan of the dynamic allocation.
func (p SpeedupParams) DynamicEndTime(pr Profile, et float64) float64 {
	total := 0.0
	for i, n := range p.DynamicAllocation(pr, et) {
		total += p.StepTime(n, pr[i])
	}
	return total
}

// StaticEndTime returns the makespan when n nodes run every step.
func (p SpeedupParams) StaticEndTime(pr Profile, n int) float64 {
	total := 0.0
	for _, s := range pr {
		total += p.StepTime(n, s)
	}
	return total
}

// StaticArea returns the consumed area of a static allocation of n nodes.
func (p SpeedupParams) StaticArea(pr Profile, n int) float64 {
	return float64(n) * p.StaticEndTime(pr, n)
}

// EquivalentStatic computes n_eq (§2.3): the static node count whose
// consumed area equals the dynamic allocation's area A(e_t). Computing it
// "requires to know all S_i a priori". The static area is strictly
// increasing in n, so the crossing is unique; the integer with the closest
// area is returned, together with the achieved relative area error.
func (p SpeedupParams) EquivalentStatic(pr Profile, et float64) (n int, relErr float64) {
	target := p.DynamicArea(pr, et)
	lo, hi := 1, 2
	for p.StaticArea(pr, hi) < target {
		lo = hi
		hi *= 2
		if hi > 1<<24 {
			break
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.StaticArea(pr, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Pick the closer of the two bracketing integers.
	dlo := math.Abs(p.StaticArea(pr, lo) - target)
	dhi := math.Abs(p.StaticArea(pr, hi) - target)
	n = lo
	if dhi < dlo {
		n = hi
	}
	relErr = math.Abs(p.StaticArea(pr, n)-target) / target
	return n, relErr
}

// EndTimeIncrease returns the relative end-time increase (e.g. 0.025 for
// 2.5 %) of the equivalent static allocation over the dynamic allocation at
// target efficiency et — the quantity plotted in Fig. 3.
func (p SpeedupParams) EndTimeIncrease(pr Profile, et float64) float64 {
	neq, _ := p.EquivalentStatic(pr, et)
	dyn := p.DynamicEndTime(pr, et)
	return p.StaticEndTime(pr, neq)/dyn - 1
}

// StaticChoice is one row of Fig. 4: for a given relative data size, the
// range of static node counts that neither run out of memory nor consume
// more than 110 % of A(75 %).
type StaticChoice struct {
	RelativeSize float64
	MinNodes     int  // memory floor: ceil(S_max / node memory)
	MaxNodes     int  // area ceiling: largest n with area ≤ 1.1·A(e_t)
	Feasible     bool // MinNodes <= MaxNodes
}

// DefaultNodeMemoryMiB is the assumed per-node memory for the Fig. 4
// analysis. The paper does not state it; 4 GiB per node is typical for the
// 2011-era clusters the paper targets (a substitution, documented here).
const DefaultNodeMemoryMiB = 4096

// StaticChoiceRange computes Fig. 4's choice band for one scaled profile:
// the scientist "wants her application not to run out of memory, but at the
// same time, she does not want to use 10% more resources than A(75%)".
func (p SpeedupParams) StaticChoiceRange(pr Profile, et float64, nodeMemMiB float64, relSize float64) StaticChoice {
	scaled := pr.Scale(relSize)
	minNodes := int(math.Ceil(scaled.Max() / nodeMemMiB))
	if minNodes < 1 {
		minNodes = 1
	}
	budget := 1.1 * p.DynamicArea(scaled, et)
	// StaticArea is strictly increasing in n: binary search the ceiling.
	lo, hi := 1, 2
	for p.StaticArea(scaled, hi) <= budget {
		lo = hi
		hi *= 2
		if hi > 1<<24 {
			break
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.StaticArea(scaled, mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return StaticChoice{
		RelativeSize: relSize,
		MinNodes:     minNodes,
		MaxNodes:     lo,
		Feasible:     minNodes <= lo,
	}
}
