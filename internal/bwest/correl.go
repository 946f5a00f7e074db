package bwest

import "math"

// Correlation tracks shared-bottleneck structure between overlay paths.
// Two paths behind the same constriction see correlated innovations —
// when one path's measurement comes in below its posterior mean, the
// other's does too. Maintaining all P² pairs is hopeless at 5000 paths,
// so candidate pairs are *declared* (from overlay topology: paths
// sharing a relay or a bottleneck group) and only those are tracked,
// with an EWMA of the product of standardized innovations.
//
// Not safe for concurrent use; the owning Estimator serializes access.
type Correlation struct {
	paths int
	alpha float64 // EWMA weight for the pair covariance
	lag   int64   // max round distance for two innovations to co-count

	// per-path standardized-innovation state
	lastZ     []float64
	lastRound []int64
	seen      []bool
	varEW     []float64 // EWMA of squared innovation (for standardization)

	pairs []corrPair
	adj   [][]int32 // path -> indexes into pairs
}

type corrPair struct {
	a, b int32
	cov  float64 // EWMA of z_a * z_b, clamped to [-1, 1] on read
}

const (
	corrAlpha  = 0.15
	corrVarEW  = 0.2
	corrLag    = 8
	corrZClamp = 3.0
)

// NewCorrelation returns an empty correlation model over paths paths.
func NewCorrelation(paths int) *Correlation {
	return &Correlation{
		paths:     paths,
		alpha:     corrAlpha,
		lag:       corrLag,
		lastZ:     make([]float64, paths),
		lastRound: make([]int64, paths),
		seen:      make([]bool, paths),
		varEW:     make([]float64, paths),
		adj:       make([][]int32, paths),
	}
}

// DeclareSharedPrior is DeclareShared with a prior correlation
// coefficient seeding the pair — for pairs declared from topology
// knowledge (two paths through the same relay genuinely share a
// constriction) rather than discovered blind. The EWMA still tracks the
// measured coefficient from there, so a wrong prior washes out.
func (c *Correlation) DeclareSharedPrior(a, b int, rho float64) {
	if a == b || a < 0 || b < 0 || a >= c.paths || b >= c.paths {
		return
	}
	for _, pi := range c.adj[a] {
		p := &c.pairs[pi]
		if (int(p.a) == a && int(p.b) == b) || (int(p.a) == b && int(p.b) == a) {
			return
		}
	}
	pi := int32(len(c.pairs))
	c.pairs = append(c.pairs, corrPair{a: int32(a), b: int32(b), cov: clampCoef(rho)})
	c.adj[a] = append(c.adj[a], pi)
	c.adj[b] = append(c.adj[b], pi)
}

// Observe folds path's measurement innovation (measured − posterior
// mean, in Mbps) at the given round: updates the path's innovation
// variance EWMA, standardizes and clamps the innovation, and for every
// declared partner whose own innovation landed within the lag window,
// nudges the pair covariance toward the z-product.
func (c *Correlation) Observe(path int, innov float64, round int64) {
	if path < 0 || path >= c.paths || math.IsNaN(innov) || math.IsInf(innov, 0) {
		return
	}
	v := c.varEW[path]
	v = (1-corrVarEW)*v + corrVarEW*innov*innov
	c.varEW[path] = v
	z := innov / math.Sqrt(v+1e-9)
	if z > corrZClamp {
		z = corrZClamp
	} else if z < -corrZClamp {
		z = -corrZClamp
	}
	for _, pi := range c.adj[path] {
		p := &c.pairs[pi]
		other := int(p.a)
		if other == path {
			other = int(p.b)
		}
		if !c.seen[other] {
			continue
		}
		if round-c.lastRound[other] > c.lag {
			continue // partner's innovation too stale to co-count
		}
		prod := z * c.lastZ[other]
		p.cov = (1-c.alpha)*p.cov + c.alpha*prod
	}
	c.lastZ[path] = z
	c.lastRound[path] = round
	c.seen[path] = true
}

// ForNeighbors calls fn for every declared partner of path with the
// current correlation coefficient. Allocation-free; iteration order is
// declaration order, so results are deterministic.
func (c *Correlation) ForNeighbors(path int, fn func(other int, rho float64)) {
	if path < 0 || path >= c.paths {
		return
	}
	for _, pi := range c.adj[path] {
		p := &c.pairs[pi]
		other := int(p.a)
		if other == path {
			other = int(p.b)
		}
		fn(other, clampCoef(p.cov))
	}
}

func clampCoef(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
