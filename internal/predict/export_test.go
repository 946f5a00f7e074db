package predict

import (
	"iqpaths/internal/stats"
)

// Quantile returns the configured quantile level q.
func (p *Percentile) Quantile() float64 { return p.q }

// ExceedProbability returns the estimated P{bandwidth ≥ bw} from the
// current window: 1 − F(bw⁻). This is the quantity Lemma 1 consumes.
func (p *Percentile) ExceedProbability(bw float64) float64 {
	if p.win.Len() == 0 {
		return 0
	}
	// P{X ≥ bw} = 1 − P{X < bw}. With an empirical CDF over a continuous
	// signal the distinction from P{X ≤ bw} is immaterial; we use F(bw)
	// shifted one ULP down so samples exactly at bw count as meeting it.
	return 1 - p.win.F(prevFloat(bw))
}

// Snapshot returns an immutable CDF of the predictor's current window.
func (p *Percentile) Snapshot() *stats.CDF { return p.win.Snapshot() }

// Len returns the number of samples currently in the window.
func (p *Percentile) Len() int { return p.win.Len() }

func prevFloat(x float64) float64 {
	// math.Nextafter towards −Inf without importing math for one call site
	// would be opaque; keep it explicit.
	return x - x*1e-12 - 1e-300
}
