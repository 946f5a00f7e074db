// Package bwest implements probabilistic available-bandwidth estimation
// with Bayesian active probe selection, after Thouin, Coates & Rabbat
// ("Multi-path Probabilistic Available Bandwidth Estimation through
// Bayesian Active Learning" and "Real-Time Multi-path Tracking of
// Probabilistic Available Bandwidth"). Each overlay path carries a
// discretized posterior belief over rate bins, updated from probe-train
// dispersion measurements and passive loss/RTT evidence; a correlation
// model infers shared bottlenecks so one probe informs every path behind
// the same constriction; and an active planner spends a global per-round
// probe budget on the paths whose measurement would carry the most
// information, instead of sweeping all paths on a fixed cadence.
//
// The subsystem sits beside the existing pipeline rather than in it: the
// measured probe samples themselves fill the monitor.PathMonitor windows
// that PGOS mapping and admission read, while the posterior decides which
// paths are probed.
package bwest

import "math"

// Belief is one path's discretized posterior over available bandwidth:
// a probability mass function across equal-width rate bins spanning
// [0, maxMbps]. All updates are pure float arithmetic over the bin
// vector, so identical observation sequences reproduce identical
// posteriors bit for bit — the property the figure goldens pin.
//
// Not safe for concurrent use; the owning Estimator serializes access.
type Belief struct {
	p     []float64 // bin masses, sum 1
	max   float64   // upper edge of the last bin
	width float64   // bin width = max / len(p)
}

// NewBelief returns a uniform belief over bins equal-width bins spanning
// [0, maxMbps]. bins must be ≥ 2 and maxMbps > 0.
func NewBelief(maxMbps float64, bins int) *Belief {
	if bins < 2 {
		panic("bwest: Belief needs >= 2 bins")
	}
	if maxMbps <= 0 {
		panic("bwest: Belief needs maxMbps > 0")
	}
	b := &Belief{
		p:     make([]float64, bins),
		max:   maxMbps,
		width: maxMbps / float64(bins),
	}
	u := 1 / float64(bins)
	for i := range b.p {
		b.p[i] = u
	}
	return b
}

// Bins returns the bin count.
func (b *Belief) Bins() int { return len(b.p) }

// Center returns bin i's center rate in Mbps.
func (b *Belief) Center(i int) float64 { return (float64(i) + 0.5) * b.width }

// rateSigma is the measurement-noise std-dev the likelihood model assumes
// for a dispersion estimate when the true bandwidth sits at rate b:
// relative noise proportional to the rate, floored at one bin width so
// the likelihood never collapses inside a single bin.
func (b *Belief) rateSigma(rate, relNoise float64) float64 {
	s := relNoise * rate
	if s < b.width {
		s = b.width
	}
	return s
}

// rateLikelihood returns the (unnormalized) likelihood of measuring y
// when the true available bandwidth is bin i's center: a Gaussian
// dispersion-error model N(c_i, σ(c_i)).
func (b *Belief) rateLikelihood(y float64, i int, relNoise float64) float64 {
	s := b.rateSigma(b.Center(i), relNoise)
	d := (y - b.Center(i)) / s
	return math.Exp(-0.5*d*d) / s
}

// ObserveRate folds one probe-train bandwidth measurement (Mbps) into the
// posterior: multiply by the dispersion-noise likelihood and renormalize.
func (b *Belief) ObserveRate(y, relNoise float64) {
	b.ObserveRateTempered(y, relNoise, 1)
}

// ObserveRateTempered is ObserveRate with the likelihood raised to
// temper ∈ (0, 1] — the fractional Bayes update the correlation model
// applies to paths that share the measured path's bottleneck with
// confidence temper (= ρ²). temper 1 is the full update; temper 0 is a
// no-op.
func (b *Belief) ObserveRateTempered(y, relNoise, temper float64) {
	if temper <= 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	if temper > 1 {
		temper = 1
	}
	sum := 0.0
	for i := range b.p {
		l := b.rateLikelihood(y, i, relNoise)
		if temper != 1 {
			l = math.Pow(l, temper)
		}
		b.p[i] *= l
		sum += b.p[i]
	}
	b.renormOr(sum)
}

// ObserveBound folds soft threshold evidence: with confidence conf the
// true bandwidth lies below (below=true) or above mbps. This is the
// passive-evidence channel — a loss burst while sending at rate r says
// "below r"; a clean interval says "at least r"; an RTT inflation says
// "below the posterior median". conf ∈ (0.5, 1): 0.5 is uninformative,
// 1 would zero out half the support (never done — evidence is noisy).
func (b *Belief) ObserveBound(mbps float64, below bool, conf float64) {
	if conf <= 0.5 || conf >= 1 || math.IsNaN(mbps) {
		return
	}
	sum := 0.0
	for i := range b.p {
		side := b.Center(i) <= mbps
		if side == below {
			b.p[i] *= conf
		} else {
			b.p[i] *= 1 - conf
		}
		sum += b.p[i]
	}
	b.renormOr(sum)
}

// renormOr divides by sum, or restores the uniform prior when the update
// underflowed to zero everywhere (a measurement far outside the support —
// the belief carries no usable information either way).
func (b *Belief) renormOr(sum float64) {
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(b.p))
		for i := range b.p {
			b.p[i] = u
		}
		return
	}
	inv := 1 / sum
	for i := range b.p {
		b.p[i] *= inv
	}
}

// Decay applies rounds rounds of forgetting with per-round mixing weight
// lambda toward the uniform prior: p ← (1−λ)p + λ·u. The geometric form
// has the closed-form k-round composition used here, so lazy callers can
// batch an arbitrary round backlog into one pass — bit-identical to
// applying the rounds one at a time is NOT guaranteed (float rounding),
// but the Estimator always uses this batched form, so its results are
// deterministic. Forgetting is what re-opens a converged posterior: a
// path unprobed for long regains entropy and with it planner priority.
func (b *Belief) Decay(rounds int, lambda float64) {
	if rounds <= 0 || lambda <= 0 {
		return
	}
	f := math.Pow(1-lambda, float64(rounds))
	mix := (1 - f) / float64(len(b.p))
	for i := range b.p {
		b.p[i] = f*b.p[i] + mix
	}
}

// EntropyBits returns the posterior's Shannon entropy in bits —
// log2(bins) when uniform, → 0 as the belief concentrates.
func (b *Belief) EntropyBits() float64 {
	h := 0.0
	for _, v := range b.p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

// Mean returns the posterior mean rate in Mbps.
func (b *Belief) Mean() float64 {
	m := 0.0
	for i, v := range b.p {
		m += v * b.Center(i)
	}
	return m
}

// Quantile returns the posterior q-quantile in Mbps, interpolating
// linearly inside the covering bin (mass is uniform within a bin).
func (b *Belief) Quantile(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return b.max
	}
	cum := 0.0
	for i, v := range b.p {
		if cum+v >= q {
			frac := 0.0
			if v > 0 {
				frac = (q - cum) / v
			}
			return (float64(i) + frac) * b.width
		}
		cum += v
	}
	return b.max
}
