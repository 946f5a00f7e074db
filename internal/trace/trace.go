// Package trace synthesizes the cross-traffic and available-bandwidth time
// series the paper drives its testbed with. The paper replays 8 GB of NLANR
// (Abilene/Auckland) IP-header traces; those traces are not redistributable,
// so this package implements generators calibrated to the statistical
// properties the paper's argument rests on:
//
//   - available bandwidth is IID-like noise around a slowly moving regime
//     (Zhang et al. [34], quoted in §4), so mean predictors carry ~20 %
//     relative error;
//   - the noise has a bounded lower excursion within a regime (link
//     capacity minus bursty cross traffic), so low percentiles of the
//     recent distribution are stable predictors;
//   - cross traffic is bursty at several timescales (on/off sources with
//     heavy-tailed on periods aggregate into self-similar-looking load).
//
// All generators take an explicit *rand.Rand so experiments are
// reproducible under a seed, and emit one sample per fixed interval in
// Mbps. Generators are not safe for concurrent use.
package trace

import (
	"math"
	"math/rand"
)

// Generator produces a rate series, one sample per tick, in Mbps.
type Generator interface {
	// Name identifies the generator in logs and trace-file headers.
	Name() string
	// Next returns the rate (Mbps) for the next interval. Values are ≥ 0.
	Next() float64
}

// CBR is a constant bit-rate source.
type CBR struct{ Rate float64 }

// NewCBR returns a constant source of rate Mbps.
// testonly: the constant cross-traffic fixture emulab's, monitor's and
// simnet's tests load links with.
func NewCBR(rate float64) *CBR { return &CBR{Rate: rate} }

// Name implements Generator.
func (c *CBR) Name() string { return "cbr" }

// Next implements Generator.
func (c *CBR) Next() float64 {
	if c.Rate < 0 {
		return 0
	}
	return c.Rate
}

// Gaussian emits mean + N(0, sigma²) noise, clamped at zero.
type Gaussian struct {
	Mean  float64
	Sigma float64
	rng   *rand.Rand
}

// NewGaussian returns a Gaussian-noise source.
func NewGaussian(mean, sigma float64, rng *rand.Rand) *Gaussian {
	return &Gaussian{Mean: mean, Sigma: sigma, rng: rng}
}

// Name implements Generator.
func (g *Gaussian) Name() string { return "gaussian" }

// Next implements Generator.
func (g *Gaussian) Next() float64 {
	v := g.Mean + g.rng.NormFloat64()*g.Sigma
	if v < 0 {
		return 0
	}
	return v
}

// TruncGaussian emits mean + truncated Gaussian noise: draws outside
// [LoZ, HiZ] (in units of sigma) are re-clamped to the boundary. Aggregate
// cross traffic has compact support — a finite set of upstream sources can
// only add or remove so much load — so the unbounded lower tail of a plain
// Gaussian misrepresents real traces; truncation restores the hard edges.
// Output is additionally clamped at zero.
type TruncGaussian struct {
	Mean, Sigma float64
	LoZ, HiZ    float64
	rng         *rand.Rand
}

// NewTruncGaussian returns a truncated-Gaussian source. loZ must be < hiZ
// (in sigma units; loZ is typically negative).
func NewTruncGaussian(mean, sigma, loZ, hiZ float64, rng *rand.Rand) *TruncGaussian {
	if loZ >= hiZ {
		panic("trace: TruncGaussian requires loZ < hiZ")
	}
	return &TruncGaussian{Mean: mean, Sigma: sigma, LoZ: loZ, HiZ: hiZ, rng: rng}
}

// Name implements Generator.
func (g *TruncGaussian) Name() string { return "trunc-gaussian" }

// Next implements Generator.
func (g *TruncGaussian) Next() float64 {
	z := g.rng.NormFloat64()
	if z < g.LoZ {
		z = g.LoZ
	}
	if z > g.HiZ {
		z = g.HiZ
	}
	v := g.Mean + z*g.Sigma
	if v < 0 {
		return 0
	}
	return v
}

// ParetoOnOff is an on/off source whose on- and off-period lengths are
// Pareto distributed (shape alpha, minimum 1 tick). Aggregating many such
// sources yields the long-range-dependent burstiness observed in real
// packet traces.
type ParetoOnOff struct {
	OnRate float64
	Alpha  float64
	MeanOn float64 // mean on-duration in ticks
	MeanOf float64 // mean off-duration in ticks
	remain int
	on     bool
	rng    *rand.Rand
}

// NewParetoOnOff builds a Pareto on/off source. alpha should be in (1, 2]
// for heavy tails with finite mean; meanOn/meanOff are the target mean
// period lengths in ticks.
func NewParetoOnOff(onRate, alpha, meanOn, meanOff float64, rng *rand.Rand) *ParetoOnOff {
	if alpha <= 1 {
		alpha = 1.5
	}
	return &ParetoOnOff{OnRate: onRate, Alpha: alpha, MeanOn: meanOn, MeanOf: meanOff, rng: rng}
}

// Name implements Generator.
func (p *ParetoOnOff) Name() string { return "pareto-onoff" }

func (p *ParetoOnOff) paretoTicks(mean float64) int {
	// Pareto with shape a and scale xm has mean a·xm/(a−1); solve xm.
	xm := mean * (p.Alpha - 1) / p.Alpha
	if xm < 1 {
		xm = 1
	}
	u := p.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := xm / math.Pow(u, 1/p.Alpha)
	n := int(d + 0.5)
	if n < 1 {
		n = 1
	}
	if n > 1_000_000 {
		n = 1_000_000 // bound pathological draws; keeps runs finite
	}
	return n
}

// Next implements Generator.
func (p *ParetoOnOff) Next() float64 {
	if p.remain == 0 {
		p.on = !p.on
		if p.on {
			p.remain = p.paretoTicks(p.MeanOn)
		} else {
			p.remain = p.paretoTicks(p.MeanOf)
		}
	}
	p.remain--
	if p.on {
		return p.OnRate
	}
	return 0
}

// RegimeWalk models the slowly varying component of path load: a bounded
// random walk that holds a level for a dwell period, then steps.
type RegimeWalk struct {
	Level     float64
	Min, Max  float64
	Step      float64 // max step magnitude per transition
	DwellMean int     // mean ticks between steps (geometric)
	rng       *rand.Rand
	dwell     int
}

// NewRegimeWalk builds a regime random walk starting at level.
func NewRegimeWalk(level, min, max, step float64, dwellMean int, rng *rand.Rand) *RegimeWalk {
	if dwellMean < 1 {
		dwellMean = 1
	}
	return &RegimeWalk{Level: level, Min: min, Max: max, Step: step, DwellMean: dwellMean, rng: rng}
}

// Name implements Generator.
func (r *RegimeWalk) Name() string { return "regime-walk" }

// Next implements Generator.
func (r *RegimeWalk) Next() float64 {
	if r.dwell <= 0 {
		r.dwell = 1 + r.rng.Intn(2*r.DwellMean)
		r.Level += (r.rng.Float64()*2 - 1) * r.Step
		if r.Level < r.Min {
			r.Level = r.Min
		}
		if r.Level > r.Max {
			r.Level = r.Max
		}
	}
	r.dwell--
	return r.Level
}

// Sum aggregates several generators into one (superposed traffic).
type Sum struct {
	Parts []Generator
}

// NewSum returns the superposition of parts.
func NewSum(parts ...Generator) *Sum { return &Sum{Parts: parts} }

// Name implements Generator.
func (s *Sum) Name() string { return "sum" }

// Next implements Generator.
func (s *Sum) Next() float64 {
	total := 0.0
	for _, p := range s.Parts {
		total += p.Next()
	}
	return total
}

// Take draws n samples from g into a fresh slice.
func Take(g Generator, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
