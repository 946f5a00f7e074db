package bwest

// Planner chooses which paths to probe each round under a global budget.
// Plan must be deterministic given the estimator state: the figure
// goldens diff active vs round-robin schedules bit for bit.
type Planner interface {
	Name() string
	// Plan appends up to k path indexes to dst and returns it. The
	// estimator has already advanced its round counter; implementations
	// read (and may refresh) cached per-path state but must not fold in
	// observations.
	Plan(e *Estimator, k int, dst []int) []int
}

// RoundRobinPlanner is the fixed-cadence oracle: it sweeps all paths in
// index order, k per round, exactly reproducing the cost model of the
// timer-driven prober (every path probed once every ⌈P/k⌉ rounds). It is
// the differential baseline the active planner must beat on probe bytes.
type RoundRobinPlanner struct {
	cursor int
}

// NewRoundRobinPlanner returns a round-robin planner starting at path 0.
func NewRoundRobinPlanner() *RoundRobinPlanner { return &RoundRobinPlanner{} }

// Name implements Planner.
func (r *RoundRobinPlanner) Name() string { return "rr" }

// Plan implements Planner.
func (r *RoundRobinPlanner) Plan(e *Estimator, k int, dst []int) []int {
	n := e.Paths()
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		dst = append(dst, r.cursor)
		r.cursor++
		if r.cursor >= n {
			r.cursor = 0
		}
	}
	return dst
}

// InfoGainPlanner greedily selects the k paths with the highest expected
// information gain (mutual information between the belief and the next
// measurement, precomputed per path by the estimator), plus a staleness
// bonus that grows linearly with rounds-since-probe so decayed paths
// re-enter rotation even when their cached gain is low. After each pick,
// candidates correlated with the picked path are discounted by (1−ρ²):
// probing one side of a shared bottleneck already buys most of the
// other side's information.
type InfoGainPlanner struct {
	scores []float64 // scratch, reused across rounds
}

// NewInfoGainPlanner returns the active planner.
func NewInfoGainPlanner() *InfoGainPlanner { return &InfoGainPlanner{} }

// Name implements Planner.
func (g *InfoGainPlanner) Name() string { return "active" }

// Plan implements Planner.
func (g *InfoGainPlanner) Plan(e *Estimator, k int, dst []int) []int {
	n := e.Paths()
	if k > n {
		k = n
	}
	if cap(g.scores) < n {
		g.scores = make([]float64, n)
	}
	scores := g.scores[:n]
	for i := 0; i < n; i++ {
		stale := float64(e.round - e.lastTouch[i])
		scores[i] = e.gain[i] + stalenessBonusBits*stale
	}
	for picked := 0; picked < k; picked++ {
		best, bestScore := -1, 0.0
		for i, s := range scores {
			if s < 0 {
				continue // already picked
			}
			if best == -1 || s > bestScore {
				best, bestScore = i, s
			}
		}
		if best == -1 {
			break
		}
		dst = append(dst, best)
		scores[best] = -1
		e.correl.ForNeighbors(best, func(other int, rho float64) {
			if scores[other] >= 0 {
				scores[other] *= 1 - rho*rho
			}
		})
	}
	return dst
}
