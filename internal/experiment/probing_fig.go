package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"iqpaths/internal/bwest"
)

// This file is the PR-9 probing figure: Bayesian active probe selection
// (internal/bwest) against a fixed round-robin cadence at equal probe
// budget, measured as probe traffic spent to reach a target per-path CDF
// accuracy — plus the scheduler-arms companion table adding the
// throughput-optimal Backpressure baseline to the WFQ/MSFQ/PGOS
// comparison. (The seed-era oracle-vs-pathload ablation lives in
// probing.go; this figure is about *which* paths to probe, not *how*.)

// ProbingConfig parameterizes the probing figure.
type ProbingConfig struct {
	// Paths lists the overlay sizes swept (default 100, 1000, 5000).
	Paths []int
	// Seed drives the truth draw and the per-path sample streams. Sample
	// streams advance only when their path is probed, so the k-th probe of
	// path i returns the same value under every planner — the planners
	// differ only in *which* paths they spend the budget on.
	Seed int64
	// SchedCfg parameterizes the scheduler-arms companion runs.
	SchedCfg RunConfig
}

// The probing sweep's fixed parameters.
const (
	// probingBins, probingMaxMbps and probingRelNoise configure the
	// per-path posterior (bwest's defaults: 24 bins over [0, 100] Mbps,
	// 12 % noise).
	probingBins     = 24
	probingMaxMbps  = 100
	probingRelNoise = 0.12
	// probingRounds caps the probing rounds per planner.
	probingRounds = 400
	// probingTargetKS is the mean per-path Kolmogorov–Smirnov distance
	// (posterior predictive CDF vs. true simnet distribution, sup over bin
	// edges) at which a planner is declared converged: above the
	// structural floor set by posterior decay and the volatile groups'
	// bimodality, below the ~0.5 of an untouched overlay, so the metric
	// measures coverage speed.
	probingTargetKS = 0.30
	// probingGroupSize paths share each bottleneck group; in-group pairs
	// are declared to the correlation model with probingSharedPrior, the
	// topology-derived prior correlation coefficient.
	probingGroupSize   = 4
	probingSharedPrior = 0.5
	// probingVolatileFrac of the groups follow a two-state capacity
	// mixture that needs sustained probing; the rest are stable.
	probingVolatileFrac = 0.25
	// probingEvalEvery rounds the mean KS is measured.
	probingEvalEvery = 5
	// probingTrainBytes is the wire cost of one probe train: 16 packets
	// of 1228 B, the live prober's train.
	probingTrainBytes = 16 * 1228
)

func (c *ProbingConfig) fillDefaults() {
	if len(c.Paths) == 0 {
		c.Paths = []int{100, 1000, 5000}
	}
}

// ProbingPoint is one planner × overlay-size cell of the probing sweep.
type ProbingPoint struct {
	Paths   int
	Planner string // "active" or "rr"
	Budget  int    // probe trains per round (equal across planners)
	// RoundsToTarget is the first evaluated round at which the mean KS
	// dropped to probingTargetKS (= probingRounds when never reached).
	RoundsToTarget int
	// ProbeKBToTarget is the probe traffic spent to reach the target.
	ProbeKBToTarget float64
	FinalMeanKS     float64
	MeanEntropyBits float64
}

// truthState is one mode of a path's true available-bandwidth mixture.
type truthState struct{ mean, sigma, w float64 }

// truthPath is the simnet ground truth for one overlay path: a Gaussian
// mixture sampled by its own rng stream.
type truthPath struct {
	states []truthState
	rng    *rand.Rand
}

func (tp *truthPath) sample() float64 {
	u := tp.rng.Float64()
	st := tp.states[len(tp.states)-1]
	acc := 0.0
	for _, s := range tp.states {
		acc += s.w
		if u < acc {
			st = s
			break
		}
	}
	v := st.mean + st.sigma*tp.rng.NormFloat64()
	if v < 0.5 {
		v = 0.5
	}
	return v
}

func (tp *truthPath) cdf(x float64) float64 {
	c := 0.0
	for _, s := range tp.states {
		c += s.w * gaussCDF(x, s.mean, s.sigma)
	}
	return c
}

func gaussCDF(x, mu, sigma float64) float64 {
	return 0.5 * (1 + math.Erf((x-mu)/(sigma*math.Sqrt2)))
}

// buildTruth draws the overlay: paths are grouped GroupSize at a time
// behind shared bottlenecks; a VolatileFrac of the groups are two-state
// mixtures (congested/clear) that need sustained probing, the rest are
// stable and converge after a handful of trains. Per-path rng streams are
// seeded from (Seed, path) alone so they are identical across planners.
func buildTruth(cfg *ProbingConfig, paths int) []truthPath {
	groupRng := rand.New(rand.NewSource(cfg.Seed))
	truth := make([]truthPath, paths)
	groups := (paths + probingGroupSize - 1) / probingGroupSize
	for g := 0; g < groups; g++ {
		base := 40 + 55*groupRng.Float64()
		volatile := groupRng.Float64() < probingVolatileFrac
		for m := 0; m < probingGroupSize; m++ {
			i := g*probingGroupSize + m
			if i >= paths {
				break
			}
			var states []truthState
			if volatile {
				lo := 0.55 * base
				states = []truthState{
					{mean: base, sigma: sigmaFloor(probingRelNoise * base * 1.2), w: 0.5},
					{mean: lo, sigma: sigmaFloor(probingRelNoise * lo * 1.2), w: 0.5},
				}
			} else {
				states = []truthState{
					{mean: base, sigma: sigmaFloor(probingRelNoise * base * 0.8), w: 1},
				}
			}
			truth[i] = truthPath{
				states: states,
				rng:    rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*7919)),
			}
		}
	}
	return truth
}

func sigmaFloor(s float64) float64 {
	if s < 1 {
		return 1
	}
	return s
}

// ksEval measures per-path CDF accuracy: the posterior predictive CDF
// (posterior mass pushed through the estimator's own measurement model,
// precomputed as condCDF[bin][edge]) against the true mixture CDF, sup
// over interior bin edges, averaged over paths.
type ksEval struct {
	condCDF  [][]float64 // [truth bin][edge] measurement-model CDF
	truthCDF [][]float64 // [path][edge] ground-truth CDF
	pmf      []float64   // scratch
	bins     int
}

func newKSEval(cfg *ProbingConfig, truth []truthPath) *ksEval {
	bins := probingBins
	width := probingMaxMbps / float64(bins)
	ev := &ksEval{
		condCDF:  make([][]float64, bins),
		truthCDF: make([][]float64, len(truth)),
		bins:     bins,
	}
	for i := 0; i < bins; i++ {
		c := (float64(i) + 0.5) * width
		s := probingRelNoise * c
		if s < width {
			s = width // the belief's likelihood floor (Belief.rateSigma)
		}
		row := make([]float64, bins-1)
		for e := 1; e < bins; e++ {
			row[e-1] = gaussCDF(float64(e)*width, c, s)
		}
		ev.condCDF[i] = row
	}
	for p := range truth {
		row := make([]float64, bins-1)
		for e := 1; e < bins; e++ {
			row[e-1] = truth[p].cdf(float64(e) * width)
		}
		ev.truthCDF[p] = row
	}
	return ev
}

// meanKS returns the mean per-path KS distance under the estimator's
// current posteriors.
func (ev *ksEval) meanKS(est *bwest.Estimator) float64 {
	total := 0.0
	for p := range ev.truthCDF {
		ev.pmf = est.PMF(p, ev.pmf)
		sup := 0.0
		for e := 0; e < ev.bins-1; e++ {
			pred := 0.0
			for i := 0; i < ev.bins; i++ {
				pred += ev.pmf[i] * ev.condCDF[i][e]
			}
			if d := math.Abs(pred - ev.truthCDF[p][e]); d > sup {
				sup = d
			}
		}
		total += sup
	}
	return total / float64(len(ev.truthCDF))
}

// runProbingPlanner runs one planner over one overlay size and reports
// its sweep cell.
func runProbingPlanner(cfg *ProbingConfig, paths int, planner bwest.Planner) ProbingPoint {
	truth := buildTruth(cfg, paths)
	ev := newKSEval(cfg, truth)
	budget := paths / 50
	if budget < 2 {
		budget = 2
	}
	est := bwest.NewEstimator(bwest.Config{
		Paths:    paths,
		MaxMbps:  probingMaxMbps,
		Bins:     probingBins,
		RelNoise: probingRelNoise,
		Budget:   budget,
		Planner:  planner,
	})
	groups := (paths + probingGroupSize - 1) / probingGroupSize
	for g := 0; g < groups; g++ {
		lo := g * probingGroupSize
		hi := lo + probingGroupSize
		if hi > paths {
			hi = paths
		}
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				est.DeclareSharedPrior(a, b, probingSharedPrior)
			}
		}
	}

	pt := ProbingPoint{
		Paths:          paths,
		Planner:        planner.Name(),
		Budget:         budget,
		RoundsToTarget: probingRounds,
	}
	trains := 0
	lastKS := 1.0
	for r := 1; r <= probingRounds; r++ {
		plan := est.PlanTrains(budget)
		for _, p := range plan {
			est.ObserveProbe(p, truth[p].sample())
			trains++
		}
		if r%probingEvalEvery == 0 {
			lastKS = ev.meanKS(est)
			if lastKS <= probingTargetKS {
				pt.RoundsToTarget = r
				break
			}
		}
	}
	pt.ProbeKBToTarget = float64(trains*probingTrainBytes) / 1024
	pt.FinalMeanKS = lastKS
	pt.MeanEntropyBits = est.MeanEntropyBits()
	return pt
}

// probingArms runs the WFQ / MSFQ / PGOS / Backpressure comparison on the
// SmartPointer workload: aggregate mean throughput over all streams vs.
// the violated-window fraction over the guaranteed (non-best-effort)
// streams. Backpressure (max-weight) is the
// throughput-optimal-but-guarantee-blind foil for PGOS.
//
// Aggregate throughput is rendered at 0.1 Mbps: the SmartPointer arrival
// rate (not path capacity) bounds the aggregate, so every work-conserving
// scheduler delivers the same total to within scheduling-noise — the arms
// differ in the violated-window column.
func probingArms(cfg RunConfig) (Table, error) {
	results, err := RunArms(cfg, RunSmartPointer, AlgWFQ, AlgMSFQ, AlgPGOS, AlgBackpressure)
	if err != nil {
		return Table{}, err
	}
	t := Table{Gap: true, Header: []string{"algorithm", "agg_mbps", "guar_violated_frac"}}
	for _, res := range results {
		agg := 0.0
		for _, ss := range res.Streams {
			agg += ss.Summary.Mean
		}
		windows, violated, frac := 0, 0, 0.0
		for _, acc := range res.Accounts {
			if acc.Kind == "best-effort" {
				continue
			}
			windows += acc.Windows
			violated += acc.ViolatedWindows
		}
		if windows > 0 {
			frac = float64(violated) / float64(windows)
		}
		t.Rows = append(t.Rows, []string{res.Algorithm, fmt.Sprintf("%.1f", agg), fmt.Sprintf("%.4f", frac)})
	}
	return t, nil
}

// runProbing executes the probing figure: the active-vs-round-robin probe
// budget sweep over cfg.Paths, then the scheduler-arms companion table.
func runProbing(cfg ProbingConfig) ([]Table, error) {
	cfg.fillDefaults()
	sweep := Table{Title: "probing", Header: []string{"paths", "planner", "budget_trains", "rounds_to_target",
		"probe_KB_to_target", "final_mean_ks", "mean_entropy_bits", "savings_pct"}}
	for _, paths := range cfg.Paths {
		if paths <= 0 {
			return nil, fmt.Errorf("probing: invalid overlay size %d", paths)
		}
		rr := runProbingPlanner(&cfg, paths, bwest.NewRoundRobinPlanner())
		active := runProbingPlanner(&cfg, paths, bwest.NewInfoGainPlanner())
		savings := 0.0
		if rr.ProbeKBToTarget > 0 {
			savings = 100 * (rr.ProbeKBToTarget - active.ProbeKBToTarget) / rr.ProbeKBToTarget
		}
		for _, p := range []ProbingPoint{active, rr} {
			cell := "-"
			if p.Planner != "rr" {
				cell = fmt.Sprintf("%.1f", savings)
			}
			sweep.Rows = append(sweep.Rows, []string{
				fmt.Sprintf("%d", p.Paths), p.Planner,
				fmt.Sprintf("%d", p.Budget),
				fmt.Sprintf("%d", p.RoundsToTarget),
				fmt.Sprintf("%.1f", p.ProbeKBToTarget),
				fmt.Sprintf("%.4f", p.FinalMeanKS),
				fmt.Sprintf("%.3f", p.MeanEntropyBits),
				cell,
			})
		}
	}
	arms, err := probingArms(cfg.SchedCfg)
	if err != nil {
		return nil, err
	}
	return []Table{sweep, arms}, nil
}
