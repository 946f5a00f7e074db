package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/predict"
	"iqpaths/internal/trace"
)

// Fig4Point is one x-axis point of Figure 4: at one bandwidth-measurement
// window (0.1–1.0 s), the mean predictors' average relative error, broken
// down per predictor (MA, SMA, EWMA, AR1), and the percentile-prediction
// failure rate.
type Fig4Point struct {
	WindowSec, MeanErr float64
	MeanErrBy          map[string]float64
	PctlFail           float64
}

// Fig4Config parameterizes the Figure 4 regeneration.
type Fig4Config struct {
	// Seed drives the synthetic NLANR-like trace.
	Seed int64
	// Samples is the base series length at 0.1 s resolution
	// (default 60000 ≈ 100 minutes of trace).
	// knob: TestRenderFig4 and report's TestGenerateFullReport run 8,000
	// samples, and BenchmarkFig4Prediction 30,000, to stay fast.
	Samples int
}

// The Figure 4 evaluation: 500-sample CDFs (the paper uses 500 or 1000)
// predicting the 10th percentile over the next 10 samples of a 100 Mbps
// bottleneck.
const (
	fig4WindowN      = 500
	fig4Quantile     = 0.10
	fig4Horizon      = 10
	fig4CapacityMbps = 100
)

func (c *Fig4Config) fillDefaults() {
	if c.Samples <= 0 {
		c.Samples = 60000
	}
}

// Fig4 regenerates Figure 4: mean-prediction error vs percentile-prediction
// failure rate as the bandwidth measurement window grows from 0.1 s to
// 1.0 s. The base series is available bandwidth on a bottleneck carrying a
// synthetic NLANR-like aggregate (see internal/trace for the calibration
// and DESIGN.md for the substitution rationale).
func Fig4(cfg Fig4Config) []Fig4Point {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cross := trace.Take(trace.NewNLANRLike(trace.DefaultNLANR(), rng), cfg.Samples)
	avail := trace.AvailableBandwidth(fig4CapacityMbps, cross)

	var out []Fig4Point
	for k := 1; k <= 10; k++ {
		agg := predict.Aggregate(avail, k)
		res := predict.Evaluate(agg, predict.EvalConfig{
			WindowN:  fig4WindowN,
			Quantile: fig4Quantile,
			Horizon:  fig4Horizon,
		})
		out = append(out, Fig4Point{
			WindowSec: 0.1 * float64(k),
			MeanErr:   res.MeanErrAvg,
			MeanErrBy: res.MeanErr,
			PctlFail:  res.PercentileFailureRate,
		})
	}
	return out
}

// fig4Table renders the Figure 4 series.
func fig4Table(points []Fig4Point) Table {
	t := Table{Header: []string{"window_s", "mean_pred_err", "pctl_fail_rate", "MA", "SMA", "EWMA", "AR1"}}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", p.WindowSec), fmt.Sprintf("%.4f", p.MeanErr),
			fmt.Sprintf("%.4f", p.PctlFail), fmt.Sprintf("%.4f", p.MeanErrBy["MA"]),
			fmt.Sprintf("%.4f", p.MeanErrBy["SMA"]), fmt.Sprintf("%.4f", p.MeanErrBy["EWMA"]),
			fmt.Sprintf("%.4f", p.MeanErrBy["AR1"]),
		})
	}
	return t
}
