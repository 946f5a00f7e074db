package predict

import (
	"fmt"
	"sort"

	"iqpaths/internal/stats"
)

// EvalConfig parameterizes the Fig. 4 evaluation protocol.
type EvalConfig struct {
	// WindowN is the number of samples whose distribution the percentile
	// predictor maintains (paper: 500 and 1000).
	WindowN int
	// Quantile is the percentile used as the statistical prediction
	// (paper: 0.10, i.e. "bandwidth sustained 90 % of the time").
	Quantile float64
	// Horizon is n, the number of future samples each percentile
	// prediction is tested against (paper: 5–10). A prediction fails when
	// more than a Quantile fraction of them fall below it: the guarantee
	// is itself probabilistic (level 1−Quantile), so the natural test is
	// whether the observed shortfall rate exceeds the promised rate.
	Horizon int
}

const (
	// evalMargin scales the predicted level before checking future samples
	// against it, mirroring the paper's own §6.1 accounting, which scores
	// streams against 99.5 % of their required bandwidth rather than the
	// exact target. A sample counts as a shortfall only when it falls
	// below evalMargin·level.
	evalMargin = 0.90
	// maWindow sizes the moving-average and AR(1) histories.
	maWindow = 20
)

func (c *EvalConfig) fillDefaults() {
	if c.WindowN <= 0 {
		c.WindowN = 500
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.10
	}
	if c.Horizon <= 0 {
		c.Horizon = 5
	}
}

// EvalResult carries the Fig. 4 quantities for one bandwidth series.
type EvalResult struct {
	// MeanErr maps each mean predictor's name to its average relative
	// prediction error |pred−actual|/actual.
	MeanErr map[string]float64
	// MeanErrAvg averages MeanErr across the predictor set — the single
	// "Mean Prediction Error" series Fig. 4 plots.
	MeanErrAvg float64
	// PercentileFailureRate is the fraction of percentile predictions
	// whose following Horizon samples violated the promised level beyond
	// Tolerance — the "Percentile Prediction Error" series of Fig. 4.
	PercentileFailureRate float64
	// MeanPredictions and PercentilePredictions count how many point and
	// percentile predictions were scored.
	MeanPredictions       int
	PercentilePredictions int
}

// String renders the result compactly for logs and the bench harness.
func (r EvalResult) String() string {
	names := make([]string, 0, len(r.MeanErr))
	// maporder: the names are collected, then sorted.
	for n := range r.MeanErr {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("meanErr=%.4f pctlFail=%.4f (", r.MeanErrAvg, r.PercentileFailureRate)
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.4f", n, r.MeanErr[n])
	}
	return s + ")"
}

// Evaluate runs the Fig. 4 protocol over a bandwidth series (one sample per
// measurement interval): every mean predictor forecasts each next sample and
// is scored by relative error; the percentile predictor forecasts the
// Quantile level and is scored by whether more than Tolerance·Horizon of the
// next Horizon samples fall below it.
func Evaluate(series []float64, cfg EvalConfig) EvalResult {
	cfg.fillDefaults()
	preds := StandardMeanPredictors(maWindow)
	pctl := NewPercentile(cfg.WindowN, cfg.Quantile, 0)

	res := EvalResult{MeanErr: make(map[string]float64, len(preds))}
	errSums := make([]float64, len(preds))
	errCounts := make([]int, len(preds))

	maxBelow := int(float64(cfg.Horizon) * cfg.Quantile)
	var pctlFailures, pctlTotal int

	for i, actual := range series {
		// Score mean predictors on their forecast of series[i].
		for j, p := range preds {
			if v, ok := p.Predict(); ok {
				errSums[j] += stats.RelativeError(v, actual)
				errCounts[j]++
			}
		}
		// Score the percentile prediction made Horizon samples ago by
		// looking forward instead: predict at i, examine i+1..i+Horizon.
		if level, ok := pctl.Predict(); ok && i+cfg.Horizon < len(series) {
			floor := level * evalMargin
			below := 0
			for k := i + 1; k <= i+cfg.Horizon; k++ {
				if series[k] < floor {
					below++
				}
			}
			pctlTotal++
			if below > maxBelow {
				pctlFailures++
			}
		}
		for _, p := range preds {
			p.Observe(actual)
		}
		pctl.Observe(actual)
	}

	sum := 0.0
	for j, p := range preds {
		if errCounts[j] == 0 {
			continue
		}
		e := errSums[j] / float64(errCounts[j])
		res.MeanErr[p.Name()] = e
		sum += e
		res.MeanPredictions += errCounts[j]
	}
	if len(res.MeanErr) > 0 {
		res.MeanErrAvg = sum / float64(len(res.MeanErr))
	}
	res.PercentilePredictions = pctlTotal
	if pctlTotal > 0 {
		res.PercentileFailureRate = float64(pctlFailures) / float64(pctlTotal)
	}
	return res
}

// Aggregate folds a base-rate series into measurement windows of k samples,
// emitting the mean of each window. It models changing the "BW measurement
// window" on Fig. 4's x-axis: the base series is sampled at the finest
// interval (0.1 s) and window sizes 1..10 produce the 0.1–1.0 s points.
// Trailing samples that do not fill a window are dropped.
func Aggregate(series []float64, k int) []float64 {
	if k <= 1 {
		out := make([]float64, len(series))
		copy(out, series)
		return out
	}
	n := len(series) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := i * k; j < (i+1)*k; j++ {
			s += series[j]
		}
		out[i] = s / float64(k)
	}
	return out
}
