package bwest

// Budget returns the per-round probe budget.
func (e *Estimator) Budget() int { return e.cfg.Budget }

// PlannerName returns the active planner's name ("active", "rr", ...).
func (e *Estimator) PlannerName() string { return e.cfg.Planner.Name() }

// DeclareShared registers a shared-bottleneck candidate pair for the
// correlation model (typically: paths traversing the same relay).
func (e *Estimator) DeclareShared(a, b int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.correl.DeclareShared(a, b)
}

// Round returns the number of completed planning rounds.
func (e *Estimator) Round() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.round
}

// Quantile returns path i's posterior q-quantile in Mbps (decay-current).
func (e *Estimator) Quantile(i int, q float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.beliefs) {
		return 0
	}
	e.touch(i)
	return e.beliefs[i].Quantile(q)
}

// Mean returns path i's posterior mean in Mbps.
func (e *Estimator) Mean(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.beliefs) {
		return 0
	}
	e.touch(i)
	return e.beliefs[i].Mean()
}

// CDFAt returns path i's posterior P{bandwidth ≤ x}.
func (e *Estimator) CDFAt(i int, x float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.beliefs) {
		return 0
	}
	e.touch(i)
	return e.beliefs[i].CDF(x)
}

// EntropyBits returns path i's posterior entropy in bits.
func (e *Estimator) EntropyBits(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.beliefs) {
		return 0
	}
	e.touch(i)
	return e.beliefs[i].EntropyBits()
}

// MaxMbps returns the upper edge of the belief's support.
func (b *Belief) MaxMbps() float64 { return b.max }

// P returns bin i's posterior mass.
func (b *Belief) P(i int) float64 { return b.p[i] }

// Coef returns the tracked correlation coefficient for (a, b), clamped
// to [-1, 1]; 0 when the pair was never declared.
func (c *Correlation) Coef(a, b int) float64 {
	if a < 0 || a >= c.paths {
		return 0
	}
	for _, pi := range c.adj[a] {
		p := &c.pairs[pi]
		if (int(p.a) == a && int(p.b) == b) || (int(p.a) == b && int(p.b) == a) {
			return clampCoef(p.cov)
		}
	}
	return 0
}

// CDF returns the posterior P{bandwidth ≤ x}.
func (b *Belief) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= b.max {
		return 1
	}
	full := int(x / b.width)
	cum := 0.0
	for i := 0; i < full && i < len(b.p); i++ {
		cum += b.p[i]
	}
	if full < len(b.p) {
		cum += b.p[full] * (x - float64(full)*b.width) / b.width
	}
	if cum > 1 {
		cum = 1
	}
	return cum
}

// DeclareShared registers (a, b) as a shared-bottleneck candidate pair.
// Declaration order is part of the deterministic state; duplicate and
// self pairs are ignored.
func (c *Correlation) DeclareShared(a, b int) {
	c.DeclareSharedPrior(a, b, 0)
}
