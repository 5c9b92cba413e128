package amr

import (
	"fmt"
	"math"
	"math/rand"

	"coormv2/internal/stats"
)

// Measurement is one (nodes, data size) → step duration observation, the
// shape of the Uintah data of Fig. 2.
type Measurement struct {
	Nodes    int
	SizeMiB  float64
	Duration float64
}

// Fig2Sizes are the mesh sizes of Fig. 2, in MiB (12, 48, 196, 784 and
// 3136 GiB).
var Fig2Sizes = []float64{12 * 1024, 48 * 1024, 196 * 1024, 784 * 1024, 3136 * 1024}

// Fig2Nodes are the node counts of Fig. 2's x-axis (1 … 16k, powers of 4).
var Fig2Nodes = []int{1, 4, 16, 64, 256, 1024, 4096, 16384}

// SynthesizeMeasurements generates a synthetic measurement grid from the
// given model with multiplicative log-normal noise. The original Uintah
// measurements are not publicly available; this substitution exercises the
// same fitting pipeline: the fit must recover the generating parameters to
// within the paper's 15 % error band.
func SynthesizeMeasurements(p SpeedupParams, rng *rand.Rand, noise float64) []Measurement {
	var out []Measurement
	for _, s := range Fig2Sizes {
		for _, n := range Fig2Nodes {
			d := p.StepTime(n, s) * math.Exp(rng.NormFloat64()*noise)
			out = append(out, Measurement{Nodes: n, SizeMiB: s, Duration: d})
		}
	}
	return out
}

// FitSpeedup fits the model t(n,S) = A·S/n + B·n + C·S + D against
// measurements by weighted linear least squares. Each row is divided by
// the observed duration, which minimizes *relative* residuals — the
// "logarithmic fitting" of §2.2 to first order, appropriate because the
// durations span three decades.
func FitSpeedup(ms []Measurement) (SpeedupParams, error) {
	if len(ms) < 4 {
		return SpeedupParams{}, fmt.Errorf("amr: need at least 4 measurements, got %d", len(ms))
	}
	rows := make([][]float64, len(ms))
	y := make([]float64, len(ms))
	for i, m := range ms {
		if m.Duration <= 0 || m.Nodes < 1 {
			return SpeedupParams{}, fmt.Errorf("amr: invalid measurement %+v", m)
		}
		w := 1 / m.Duration
		rows[i] = []float64{
			m.SizeMiB / float64(m.Nodes) * w,
			float64(m.Nodes) * w,
			m.SizeMiB * w,
			1 * w,
		}
		y[i] = 1 // duration * w
	}
	beta, err := stats.SolveLeastSquares(rows, y)
	if err != nil {
		return SpeedupParams{}, err
	}
	return SpeedupParams{A: beta[0], B: beta[1], C: beta[2], D: beta[3]}, nil
}

// MaxRelError returns the largest relative error of the model against the
// measurements — the paper reports "within an error of less than 15% for
// any data point" (§2.2).
func MaxRelError(p SpeedupParams, ms []Measurement) float64 {
	worst := 0.0
	for _, m := range ms {
		pred := p.StepTime(m.Nodes, m.SizeMiB)
		rel := math.Abs(pred-m.Duration) / m.Duration
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
