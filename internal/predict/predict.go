// Package predict implements the bandwidth predictors compared in the
// paper's §4 and Figure 4: classic mean-value predictors (MA, SMA, EWMA,
// AR(1)) that estimate the next interval's average available bandwidth, and
// the statistical percentile predictor IQ-Paths uses instead, which predicts
// a bandwidth level that the path will exceed with a chosen probability.
//
// The paper's observation is that available bandwidth on shared paths is
// IID-like noise around slowly moving regimes, so point predictions of the
// next average carry ~20 % relative error, while percentile points of the
// recent distribution are stable and fail rarely (<4 %). The Evaluate
// harness in this package quantifies both, and internal/experiment renders
// the Fig. 4 series from it.
package predict

import "iqpaths/internal/stats"

// MeanPredictor estimates the next sample's value from past samples.
// Implementations are not safe for concurrent use.
type MeanPredictor interface {
	// Name identifies the predictor in result tables.
	Name() string
	// Observe feeds one measured sample.
	Observe(x float64)
	// Predict returns the estimate for the next sample. ok is false until
	// the predictor has enough history to produce an estimate.
	Predict() (v float64, ok bool)
	// Reset discards all history.
	Reset()
}

// MA predicts the mean of the last K samples (moving average).
type MA struct {
	win *stats.Window
	k   int
}

// NewMA returns a moving-average predictor over k samples (k ≥ 1).
func NewMA(k int) *MA { return &MA{win: stats.NewWindow(k), k: k} }

// Name implements MeanPredictor.
func (m *MA) Name() string { return "MA" }

// Observe implements MeanPredictor.
func (m *MA) Observe(x float64) { m.win.Add(x) }

// Predict implements MeanPredictor.
func (m *MA) Predict() (float64, bool) {
	if m.win.Len() == 0 {
		return 0, false
	}
	return m.win.Mean(), true
}

// Reset implements MeanPredictor.
func (m *MA) Reset() { m.win.Reset() }

// SMA is the running (cumulative) mean of all history — the long-memory
// end of the moving-average family.
type SMA struct {
	w stats.Welford
}

// NewSMA returns a cumulative-mean predictor.
func NewSMA() *SMA { return &SMA{} }

// Name implements MeanPredictor.
func (s *SMA) Name() string { return "SMA" }

// Observe implements MeanPredictor.
func (s *SMA) Observe(x float64) { s.w.Add(x) }

// Predict implements MeanPredictor.
func (s *SMA) Predict() (float64, bool) {
	if s.w.N() == 0 {
		return 0, false
	}
	return s.w.Mean(), true
}

// Reset implements MeanPredictor.
func (s *SMA) Reset() { s.w.Reset() }

// EWMA predicts with an exponentially weighted moving average:
// v ← α·x + (1−α)·v.
type EWMA struct {
	alpha float64
	v     float64
	seen  bool
}

// NewEWMA returns an EWMA predictor with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("predict: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Name implements MeanPredictor.
func (e *EWMA) Name() string { return "EWMA" }

// Observe implements MeanPredictor.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.v, e.seen = x, true
		return
	}
	e.v = e.alpha*x + (1-e.alpha)*e.v
}

// Predict implements MeanPredictor.
func (e *EWMA) Predict() (float64, bool) { return e.v, e.seen }

// Reset implements MeanPredictor.
func (e *EWMA) Reset() { *e = EWMA{alpha: e.alpha} }

// AR1 fits a first-order autoregressive model x̂(t+1) = μ + φ·(x(t) − μ)
// online, estimating μ and φ from windowed sample moments.
type AR1 struct {
	win  *stats.Window
	last float64
	// Running sums over the window for lag-1 covariance would require
	// pairing; we keep the raw values and recompute on Predict, which is
	// acceptable for the modest windows (≤ 1000) used in evaluation.
	// vals is scratch reused across Predict calls so the per-call window
	// copy is allocation-free.
	vals []float64
}

// NewAR1 returns an AR(1) predictor estimating parameters over k samples.
func NewAR1(k int) *AR1 {
	if k < 4 {
		k = 4
	}
	return &AR1{win: stats.NewWindow(k)}
}

// Name implements MeanPredictor.
func (a *AR1) Name() string { return "AR1" }

// Observe implements MeanPredictor.
func (a *AR1) Observe(x float64) {
	a.win.Add(x)
	a.last = x
}

// Predict implements MeanPredictor.
func (a *AR1) Predict() (float64, bool) {
	n := a.win.Len()
	if n < 4 {
		return 0, false
	}
	a.vals = a.win.AppendValues(a.vals[:0])
	vals := a.vals
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (vals[i] - mean) * (vals[i-1] - mean)
	}
	for _, v := range vals {
		d := v - mean
		den += d * d
	}
	phi := 0.0
	if den > 0 {
		phi = num / den
	}
	// Clamp to a stable range; wild φ estimates on short windows otherwise
	// produce divergent predictions.
	if phi > 0.99 {
		phi = 0.99
	}
	if phi < -0.99 {
		phi = -0.99
	}
	return mean + phi*(a.last-mean), true
}

// Reset implements MeanPredictor.
func (a *AR1) Reset() {
	a.win.Reset()
	a.last = 0
}

// StandardMeanPredictors returns fresh instances of the mean-predictor set
// the paper evaluates (MA, SMA, EWMA), plus AR(1) as the "more elaborate"
// family it cites. maWindow sizes the MA and AR(1) history.
func StandardMeanPredictors(maWindow int) []MeanPredictor {
	return []MeanPredictor{
		NewMA(maWindow),
		NewSMA(),
		NewEWMA(0.25),
		NewAR1(maWindow),
	}
}
