package predict

import "iqpaths/internal/stats"

// Percentile is the statistical predictor at the heart of IQ-Paths (§4).
// It maintains the distribution of the last N bandwidth samples and predicts
// the q-quantile of that distribution as a level the path will exceed with
// probability ≈ 1−q. The paper uses N = 500–1000 samples and q = 0.10
// ("can the path sustain X for 90 % of the time?").
type Percentile struct {
	win   *stats.Window
	q     float64
	minND int
}

// NewPercentile creates a percentile predictor over a window of n samples
// predicting quantile q (e.g. 0.10). minWarm is the minimum number of
// samples before predictions are produced; if ≤ 0 a default of n/5 is used.
func NewPercentile(n int, q float64, minWarm int) *Percentile {
	if q <= 0 || q >= 1 {
		panic("predict: Percentile quantile must be in (0,1)")
	}
	if minWarm <= 0 {
		minWarm = n / 5
		if minWarm < 10 {
			minWarm = 10
		}
	}
	return &Percentile{win: stats.NewWindow(n), q: q, minND: minWarm}
}

// Name identifies the predictor.
func (p *Percentile) Name() string { return "PCTL" }

// Observe feeds one measured sample.
func (p *Percentile) Observe(x float64) { p.win.Add(x) }

// Predict returns the current q-quantile of the window, i.e. a bandwidth
// level the path is predicted to exceed with probability 1−q. ok is false
// until the warm-up threshold is reached.
func (p *Percentile) Predict() (float64, bool) {
	if p.win.Len() < p.minND {
		return 0, false
	}
	return p.win.Quantile(p.q), true
}

// Reset discards all history.
func (p *Percentile) Reset() { p.win.Reset() }
