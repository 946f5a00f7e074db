package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/emulab"
	"iqpaths/internal/predict"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/trace"
)

// quantileSweep extends Fig. 4: it fixes the measurement window at 0.5 s
// and sweeps the predicted percentile from p5 to p30, reporting the
// measured prediction failure rate beside the mean predictors' error on
// the same series (constant across rows; included for contrast). Lower
// percentiles promise less bandwidth but fail less often — the knob an
// application turns when it asks for 99 % instead of 95 % assurance.
func quantileSweep(seed int64) Table {
	rng := rand.New(rand.NewSource(seed))
	cross := trace.Take(trace.NewNLANRLike(trace.DefaultNLANR(), rng), 60000)
	avail := predict.Aggregate(trace.AvailableBandwidth(100, cross), 5)
	t := Table{Header: []string{"quantile", "pctl_fail_rate", "mean_pred_err"}}
	for _, q := range []float64{0.05, 0.10, 0.20, 0.30} {
		res := predict.Evaluate(avail, predict.EvalConfig{WindowN: 500, Quantile: q, Horizon: 10})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", q),
			fmt.Sprintf("%.4f", res.PercentileFailureRate),
			fmt.Sprintf("%.4f", res.MeanErrAvg),
		})
	}
	return t
}

// windowSweep reruns the SmartPointer PGOS experiment across scheduling
// windows tw — the paper operates at 1 s; shorter windows react faster but
// schedule fewer packets per vector, longer windows smooth more. Each row
// reports a critical stream's sustained-95 % level and σ beside Bond2's
// mean (the cost side).
func windowSweep(cfg RunConfig) (Table, error) {
	tws := []float64{0.25, 0.5, 1, 2, 4}
	cfg.Algorithm = AlgPGOS
	results, err := sweep(cfg, tws, func(c *RunConfig, tw float64) { c.TwSec = tw }, RunSmartPointer)
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"tw_s", "stream", "sustained_95pct", "stddev", "bond2_mean"}}
	for k, res := range results {
		for _, ss := range res.Streams[:2] {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", tws[k]),
				ss.Name,
				fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.95)),
				fmt.Sprintf("%.4f", ss.Summary.StdDev),
				fmt.Sprintf("%.2f", res.Streams[2].Summary.Mean),
			})
		}
	}
	return t, nil
}

// admissionAblation contrasts admission *honesty*: one stream asks for R
// Mbps at 95 % on a single overlay path as R climbs toward the path's
// capacity. Percentile-based admission (IQ-Paths) only accepts what the
// bandwidth distribution's lower tail supports and keeps its promises;
// mean-based admission accepts anything below the mean and breaks them.
// Multi-path rescue (precedence rule 2) is disabled by the single path so
// the predictor alone carries the guarantee. A decision is honest when the
// stream was refused up front or achieved at least its promised
// probability (within a 1 % measurement slack) of seconds at ≥98.5 % of
// the target.
func admissionAblation(cfg RunConfig) (Table, error) {
	cfg.fillDefaults()
	if cfg.DurationSec < 400 {
		// Long enough to include congestion episodes (~2 % duty, ~30 s
		// long); short windows can miss them and flatter the mean mapper.
		cfg.DurationSec = 400
	}
	t := Table{Header: []string{"mode", "required_mbps", "promised", "admitted", "mean", "achieved_frac", "honest"}}
	type ask struct{ req, prob float64 }
	for _, mode := range []string{"percentile", "mean"} {
		for _, a := range []ask{{48, 0.95}, {56, 0.95}, {60, 0.99}, {62, 0.99}} {
			tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
			st := stream.New(0, stream.Spec{
				Name: "guaranteed", Kind: stream.Probabilistic,
				RequiredMbps: a.req, Probability: a.prob,
			})
			var w sources
			w.add(st, stream.NewRateSource(tb.Net, st, a.req))
			c := cfg
			c.Algorithm = AlgPGOS
			c.MeanPrediction = mode == "mean"
			if c.PaceLimit <= 0 {
				c.PaceLimit = 170
			}
			res, err := run(c, tb.Net, []*simnet.Path{tb.PathA}, w, hooks{})
			if err != nil {
				return Table{}, err
			}
			admitted := len(res.Rejected) == 0
			achieved := res.Streams[0].Summary.FractionAtLeast(a.req * 0.985)
			t.Rows = append(t.Rows, []string{
				mode,
				fmt.Sprintf("%.0f", a.req),
				fmt.Sprintf("%.2f", a.prob),
				fmt.Sprintf("%t", admitted),
				fmt.Sprintf("%.2f", res.Streams[0].Summary.Mean),
				fmt.Sprintf("%.3f", achieved),
				fmt.Sprintf("%t", !admitted || achieved+0.01 >= a.prob),
			})
		}
	}
	return t, nil
}

// meanPredictorAblation runs IQPG-GridFTP twice — once with its
// statistical (percentile) predictions and once with mean predictions
// driving the identical scheduler — isolating the predictor's
// contribution. The GridFTP demand (DT1+DT2 ≈ 60 Mbps against a path
// whose *mean* covers it but whose lower percentiles do not) is exactly
// the regime where mean-based admission over-commits: the mean mapper
// packs both guaranteed streams onto path A and DT2 starves whenever the
// path dips, while the percentile mapper splits DT2 across paths.
func meanPredictorAblation(cfg RunConfig) (Table, error) {
	cfg.Algorithm = AlgPGOS
	results, err := sweep(cfg, []bool{false, true}, func(c *RunConfig, mean bool) { c.MeanPrediction = mean }, RunGridFTP)
	if err != nil {
		return Table{}, err
	}
	results[0].Algorithm, results[1].Algorithm = "PGOS(percentile)", "PGOS(mean-pred)"
	return RenderFig11(results, "DT1", "DT2"), nil
}
