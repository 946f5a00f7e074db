package trace

import "math/rand"

// NLANRConfig shapes a synthetic cross-traffic trace with the statistical
// structure of the NLANR Abilene/Auckland aggregates the paper replays.
// Three components matter to the paper's argument and are modelled
// explicitly:
//
//   - a slowly drifting regime (multi-minute constancy horizons, per the
//     Zhang et al. study the paper cites): RegimeWalk;
//   - dense per-tick noise with *compact support* (an aggregate of finitely
//     many sources cannot exceed hard bounds): TruncGaussian jitter, so
//     mean predictors err ~10–20 % while the distribution keeps firm edges;
//   - occasional deep congestion *episodes* (heavy-tailed durations, a few
//     percent of time): a Pareto on/off dip source. These form the lower
//     tail of the bandwidth distribution, separated from the calm mode by
//     a probability gap — the property that makes low-percentile
//     predictions reliable and mean predictions not.
type NLANRConfig struct {
	// BaseLoad is the starting regime level in Mbps.
	BaseLoad float64
	// RegimeMin/RegimeMax bound the slow drift of the regime.
	RegimeMin, RegimeMax float64
	// RegimeStep is the maximum regime step magnitude (Mbps).
	RegimeStep float64
	// JitterSigma is the per-tick noise scale (Mbps).
	JitterSigma float64
	// DipRate is the extra load during a congestion episode (Mbps).
	DipRate float64
	// DipMeanOn/DipMeanOff are the mean episode/gap lengths in ticks.
	DipMeanOn, DipMeanOff float64
}

const (
	// regimeDwell is the mean regime dwell time in ticks: 15 min at 0.1 s
	// ticks.
	regimeDwell = 9000
	// jitterLoZ/jitterHiZ truncate the noise (in sigma units). The
	// asymmetry (−3σ, +1.5σ) reflects that load surges above the
	// aggregate are tightly bounded (the bottleneck link itself caps
	// them), while lulls stretch further down. The hard upper bound on
	// cross traffic is what gives available bandwidth its firm lower edge.
	jitterLoZ, jitterHiZ = -3, 1.5
	// dipAlpha is the Pareto tail index of episode durations.
	dipAlpha = 1.6
)

// DefaultNLANR returns the calibration used by the experiments, sized for a
// 100 Mbps-class bottleneck: a ~35 Mbps drifting aggregate, −3σ/+1.5σ
// truncated jitter of 13 Mbps, and ~2 %-duty 30 Mbps congestion episodes.
// Under this calibration mean predictors carry ~10–20 % relative error at
// sub-second windows while 10th-percentile predictions fail rarely — the
// Fig. 4 contrast.
func DefaultNLANR() NLANRConfig {
	return NLANRConfig{
		BaseLoad:    35,
		RegimeMin:   25,
		RegimeMax:   45,
		RegimeStep:  4,
		JitterSigma: 13,
		DipRate:     30,
		DipMeanOn:   300,   // ~30 s episodes
		DipMeanOff:  15000, // ~25 min gaps → ~2 % duty
	}
}

// NewNLANRLike composes the configured generators into one cross-traffic
// source. Every stochastic part draws from rng, so a seed fully determines
// the trace.
func NewNLANRLike(cfg NLANRConfig, rng *rand.Rand) Generator {
	return &Sum{Parts: []Generator{
		NewRegimeWalk(cfg.BaseLoad, cfg.RegimeMin, cfg.RegimeMax, cfg.RegimeStep, regimeDwell, rng),
		NewTruncGaussian(0, cfg.JitterSigma, jitterLoZ, jitterHiZ, rng),
		NewParetoOnOff(cfg.DipRate, dipAlpha, cfg.DipMeanOn, cfg.DipMeanOff, rng),
	}}
}

// AvailableBandwidth converts a cross-traffic series into the available
// bandwidth seen by overlay traffic on a link of the given capacity:
// max(0, capacity − cross). This is the series Fig. 4 predicts.
func AvailableBandwidth(capacity float64, cross []float64) []float64 {
	out := make([]float64, len(cross))
	for i, c := range cross {
		ab := capacity - c
		if ab < 0 {
			ab = 0
		}
		out[i] = ab
	}
	return out
}
