package bwest

import (
	"math"
	"sync"

	"iqpaths/internal/telemetry"
)

// Config parameterizes an Estimator. Zero value fields take defaults.
type Config struct {
	// Paths is the number of overlay paths tracked. Required.
	Paths int
	// MaxMbps is the upper edge of every belief's support. Default 100.
	MaxMbps float64
	// Bins is the belief resolution. Default 24.
	Bins int
	// RelNoise is the relative std-dev of a dispersion measurement
	// (σ = RelNoise · rate, floored at one bin). Default 0.12.
	RelNoise float64
	// Budget is the number of probe trains per planning round. Default
	// max(1, Paths/50).
	Budget int
	// Planner selects paths each round. Default NewInfoGainPlanner().
	Planner Planner
	// Telemetry receives bwest gauges/counters; nil disables.
	Telemetry *telemetry.Registry
}

const (
	// decayPerRound mixes each belief toward uniform by this weight per
	// planning round (applied lazily in closed form).
	decayPerRound = 0.01
	// stalenessBonusBits is the planner's per-round score bonus for an
	// unprobed path, in bits.
	stalenessBonusBits = 0.02
	// minShareRho is the |correlation| threshold above which a probe on
	// one path also (fractionally) updates its declared partners.
	minShareRho = 0.4
)

func (c *Config) fillDefaults() {
	if c.MaxMbps <= 0 {
		c.MaxMbps = 100
	}
	if c.Bins <= 0 {
		c.Bins = 24
	}
	if c.RelNoise <= 0 {
		c.RelNoise = 0.12
	}
	if c.Budget <= 0 {
		c.Budget = c.Paths / 50
		if c.Budget < 1 {
			c.Budget = 1
		}
	}
	if c.Planner == nil {
		c.Planner = NewInfoGainPlanner()
	}
}

// Estimator owns the per-path beliefs, the shared-bottleneck correlation
// model, the information-gain cache, and the probe planner. It is the
// subsystem's single entry point: the prober asks PlanTrains which
// trains to emit, feeds measurements back through ObserveProbe /
// ObserveLoss / ObserveRTT, and evaluation harnesses read the posterior
// back (PMF, MeanEntropyBits).
//
// Scalability rests on three invariants: decay is lazy (closed-form
// batch at touch time, so idle paths cost nothing per round), the
// measurement-conditional matrix for expected information gain is
// precomputed once and shared by all paths (EIG per path is O(B²) only
// when that path is observed), and correlation is sparse over declared
// pairs. A 5000-path round costs O(P) for planner scoring plus O(K·B²)
// for the observed paths.
//
// Safe for concurrent use.
type Estimator struct {
	mu  sync.Mutex
	cfg Config

	beliefs []*Belief
	correl  *Correlation

	gain      []float64 // cached EIG bits per path (refreshed on touch)
	lastTouch []int64   // round of last decay application
	minRTT    []float64 // per-path min RTT baseline (s); 0 = none yet
	round     int64

	// Shared EIG precomputation: cond[i][j] = P(measurement bin j | truth
	// bin i) under the Gaussian dispersion-noise model, and condH[i] =
	// H(measurement | truth bin i) in bits. EIG for belief p is then
	// H(Σ_i p_i·cond[i]) − Σ_i p_i·condH[i] — mutual information I(B;Y)
	// with the measurement discretized to the same bins.
	cond  [][]float64
	condH []float64
	py    []float64 // scratch for the predictive distribution

	planScratch []int

	probesPerRound *telemetry.Gauge
	budgetUtil     *telemetry.Gauge
	entropyMean    *telemetry.Gauge
	probesTotal    *telemetry.Counter
}

// NewEstimator builds an estimator for cfg.Paths paths with uniform
// priors.
func NewEstimator(cfg Config) *Estimator {
	if cfg.Paths <= 0 {
		panic("bwest: Config.Paths must be > 0")
	}
	cfg.fillDefaults()
	e := &Estimator{
		cfg:       cfg,
		beliefs:   make([]*Belief, cfg.Paths),
		correl:    NewCorrelation(cfg.Paths),
		gain:      make([]float64, cfg.Paths),
		lastTouch: make([]int64, cfg.Paths),
		minRTT:    make([]float64, cfg.Paths),
		py:        make([]float64, cfg.Bins),
	}
	for i := range e.beliefs {
		e.beliefs[i] = NewBelief(cfg.MaxMbps, cfg.Bins)
	}
	e.buildConditional()
	g0 := e.eig(e.beliefs[0])
	for i := range e.gain {
		e.gain[i] = g0
	}
	if cfg.Telemetry != nil {
		scope := cfg.Telemetry.WithLabels("scope", "bwest")
		e.probesPerRound = scope.Gauge("iqpaths_bwest_probes_per_round", "probe trains emitted in the last planning round")
		e.budgetUtil = scope.Gauge("iqpaths_bwest_budget_util", "fraction of the per-round probe budget used")
		e.entropyMean = scope.Gauge("iqpaths_bwest_entropy_bits_mean", "mean posterior entropy across paths (bits)")
		e.probesTotal = scope.Counter("iqpaths_bwest_probes_total", "probe trains planned since start")
	}
	return e
}

// Paths returns the tracked path count.
func (e *Estimator) Paths() int { return len(e.beliefs) }

// DeclareSharedPrior registers a candidate pair with a topology-derived
// prior correlation coefficient (see Correlation.DeclareSharedPrior).
func (e *Estimator) DeclareSharedPrior(a, b int, rho float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.correl.DeclareSharedPrior(a, b, rho)
}

// buildConditional precomputes the measurement-bin conditional matrix
// shared by every path's EIG computation.
func (e *Estimator) buildConditional() {
	b0 := e.beliefs[0]
	bins := b0.Bins()
	e.cond = make([][]float64, bins)
	e.condH = make([]float64, bins)
	for i := 0; i < bins; i++ {
		row := make([]float64, bins)
		sum := 0.0
		for j := 0; j < bins; j++ {
			row[j] = b0.rateLikelihood(b0.Center(j), i, e.cfg.RelNoise)
			sum += row[j]
		}
		h := 0.0
		for j := 0; j < bins; j++ {
			row[j] /= sum
			if row[j] > 0 {
				h -= row[j] * math.Log2(row[j])
			}
		}
		e.cond[i] = row
		e.condH[i] = h
	}
}

// eig returns the expected information gain (bits) of one measurement
// on belief b: I(B;Y) = H(p_y) − Σ_i p_i·H(Y|B=i), with p_y the
// predictive measurement distribution p·cond.
func (e *Estimator) eig(b *Belief) float64 {
	bins := b.Bins()
	for j := 0; j < bins; j++ {
		e.py[j] = 0
	}
	condEnt := 0.0
	for i := 0; i < bins; i++ {
		pi := b.p[i]
		if pi == 0 {
			continue
		}
		row := e.cond[i]
		for j := 0; j < bins; j++ {
			e.py[j] += pi * row[j]
		}
		condEnt += pi * e.condH[i]
	}
	hY := 0.0
	for j := 0; j < bins; j++ {
		if e.py[j] > 0 {
			hY -= e.py[j] * math.Log2(e.py[j])
		}
	}
	g := hY - condEnt
	if g < 0 {
		g = 0
	}
	return g
}

// touch applies the lazy decay backlog to path i and refreshes its
// cached gain. Callers hold e.mu.
func (e *Estimator) touch(i int) {
	back := e.round - e.lastTouch[i]
	if back > 0 {
		e.beliefs[i].Decay(int(back), decayPerRound)
		e.lastTouch[i] = e.round
		e.gain[i] = e.eig(e.beliefs[i])
	}
}

// ObserveProbe folds a probe-train dispersion measurement (Mbps) for
// path i, propagates it fractionally to correlated partners, and feeds
// the innovation to the correlation tracker.
func (e *Estimator) ObserveProbe(i int, mbps float64) {
	if i < 0 || i >= len(e.beliefs) || math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.touch(i)
	innov := mbps - e.beliefs[i].Mean()
	e.beliefs[i].ObserveRate(mbps, e.cfg.RelNoise)
	e.gain[i] = e.eig(e.beliefs[i])
	e.correl.Observe(i, innov, e.round)
	e.correl.ForNeighbors(i, func(j int, rho float64) {
		if rho < 0 {
			rho = -rho
		}
		if rho < minShareRho {
			return
		}
		e.touch(j)
		e.beliefs[j].ObserveRateTempered(mbps, e.cfg.RelNoise, rho*rho)
		e.gain[j] = e.eig(e.beliefs[j])
	})
}

// ObserveLoss folds passive loss evidence for path i: a loss-rate
// sample observed while sending at sendMbps. Sustained loss at a send
// rate is soft evidence the available bandwidth sits below that rate; a
// clean interval at a meaningful rate is weak evidence it sits above.
func (e *Estimator) ObserveLoss(i int, lossRate, sendMbps float64) {
	if i < 0 || i >= len(e.beliefs) || sendMbps <= 0 ||
		math.IsNaN(lossRate) || math.IsNaN(sendMbps) || math.IsInf(sendMbps, 0) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.touch(i)
	switch {
	case lossRate > 0.02:
		e.beliefs[i].ObserveBound(sendMbps, true, 0.6)
	case lossRate == 0:
		e.beliefs[i].ObserveBound(sendMbps, false, 0.55)
	default:
		return
	}
	e.gain[i] = e.eig(e.beliefs[i])
}

// ObserveRTT folds passive RTT evidence for path i. The minimum RTT
// seen is the uncongested baseline; a sample well above it signals
// queueing, i.e. the path is running at or past its available
// bandwidth — soft evidence the truth sits below the posterior median.
func (e *Estimator) ObserveRTT(i int, rttSec float64) {
	if i < 0 || i >= len(e.beliefs) || rttSec <= 0 || math.IsNaN(rttSec) || math.IsInf(rttSec, 0) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.minRTT[i] == 0 || rttSec < e.minRTT[i] {
		e.minRTT[i] = rttSec
		return
	}
	if rttSec > 1.5*e.minRTT[i]+0.005 {
		e.touch(i)
		med := e.beliefs[i].Quantile(0.5)
		e.beliefs[i].ObserveBound(med, true, 0.55)
		e.gain[i] = e.eig(e.beliefs[i])
	}
}

// PlanTrains advances one planning round and returns the paths to probe
// this round, at most k (k ≤ 0 means the configured budget). It
// implements the prober-side TrainPlanner contract.
func (e *Estimator) PlanTrains(k int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k <= 0 || k > e.cfg.Budget {
		k = e.cfg.Budget
	}
	e.round++
	e.planScratch = e.cfg.Planner.Plan(e, k, e.planScratch[:0])
	plan := e.planScratch
	if e.probesPerRound != nil {
		e.probesPerRound.Set(float64(len(plan)))
		e.budgetUtil.Set(float64(len(plan)) / float64(e.cfg.Budget))
		e.probesTotal.Add(uint64(len(plan)))
		if e.round%16 == 0 {
			e.entropyMean.Set(e.meanEntropyLocked())
		}
	}
	out := make([]int, len(plan))
	copy(out, plan)
	return out
}

// MeanEntropyBits returns the mean posterior entropy across all paths.
func (e *Estimator) MeanEntropyBits() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meanEntropyLocked()
}

func (e *Estimator) meanEntropyLocked() float64 {
	sum := 0.0
	for i := range e.beliefs {
		e.touch(i)
		sum += e.beliefs[i].EntropyBits()
	}
	return sum / float64(len(e.beliefs))
}

// PMF copies path i's decay-current posterior masses into dst (resized
// as needed) — the raw belief vector for evaluation harnesses that
// compare posteriors against a known truth distribution.
func (e *Estimator) PMF(i int, dst []float64) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.beliefs) {
		return dst[:0]
	}
	e.touch(i)
	return append(dst[:0], e.beliefs[i].p...)
}
