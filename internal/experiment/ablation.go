package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/predict"
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
			fmt.Sprintf("%.2f", q), fmt.Sprintf("%.4f", res.PercentileFailureRate),
			fmt.Sprintf("%.4f", res.MeanErrAvg),
		})
	}
	return t
}

// windowTws are the scheduling windows tw the window sweep reruns the
// SmartPointer PGOS experiment across — the paper operates at 1 s;
// shorter windows react faster but schedule fewer packets per vector,
// longer windows smooth more.
var windowTws = []float64{0.25, 0.5, 1, 2, 4}

// windowTable renders a row per window and critical stream: its
// sustained-95 % level and σ beside Bond2's mean (the cost side).
func windowTable(_ Params, results []Result) []Table {
	t := Table{Header: []string{"tw_s", "stream", "sustained_95pct", "stddev", "bond2_mean"}}
	for k, res := range results {
		for _, ss := range res.Streams[:2] {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", windowTws[k]), ss.Name, fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.95)),
				fmt.Sprintf("%.4f", ss.Summary.StdDev), fmt.Sprintf("%.2f", res.Streams[2].Summary.Mean),
			})
		}
	}
	return []Table{t}
}

// dispersionTable renders the dispersion ablation, which asks "do the
// guarantees survive real measurement?": PGOS with its monitors sampling
// each path's true available bandwidth every 0.1 s (oracle), then fed
// only by a dispersion train per path every 5 s (probing), which pays
// the probe traffic and the measurement error. A row per mode and
// critical stream: its mean, 95 %-of-time level and σ.
func dispersionTable(_ Params, results []Result) []Table {
	t := Table{Header: []string{"mode", "stream", "mean", "sustained_95pct", "stddev"}}
	for k, mode := range []string{"oracle", "probing"} {
		for _, ss := range results[k].Streams[:2] {
			t.Rows = append(t.Rows, []string{
				mode, ss.Name, fmt.Sprintf("%.3f", ss.Summary.Mean),
				fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.95)), fmt.Sprintf("%.4f", ss.Summary.StdDev),
			})
		}
	}
	return []Table{t}
}

// The admission ablation contrasts admission *honesty*: one stream asks
// for R Mbps at 95 % on a single overlay path as R climbs toward the
// path's capacity. Percentile-based admission (IQ-Paths) only accepts what
// the bandwidth distribution's lower tail supports and keeps its promises;
// mean-based admission accepts anything below the mean and breaks them.
// Multi-path rescue (precedence rule 2) is disabled by the single path so
// the predictor alone carries the guarantee. Its runs are floored at
// admissionMinSec measured seconds: long enough to include congestion
// episodes (~2 % duty, ~30 s long); short windows can miss them and
// flatter the mean mapper.
const admissionMinSec = 400

// admissionAsk is one ask of the admission ablation, under one mode.
type admissionAsk struct {
	mode      string // "percentile" or "mean"
	req, prob float64
}

// admissionAsks is the ablation's axis: each ask under percentile, then
// mean admission.
var admissionAsks = []admissionAsk{
	{"percentile", 48, 0.95}, {"percentile", 56, 0.95}, {"percentile", 60, 0.99}, {"percentile", 62, 0.99},
	{"mean", 48, 0.95}, {"mean", 56, 0.95}, {"mean", 60, 0.99}, {"mean", 62, 0.99},
}

// oneAsk is the admission ablation's workload: one stream asking for a.req
// Mbps at a.prob, offered at a.req, with bulk buffers.
func oneAsk(a admissionAsk) Workload {
	return Workload{PaceLimit: bulkPace, New: func(h *Harness, _ RunConfig) workload {
		st := stream.New(0, stream.Spec{
			Name: "guaranteed", Kind: stream.Probabilistic,
			RequiredMbps: a.req, Probability: a.prob,
		})
		var w sources
		w.add(st, stream.NewRateSource(h.Net, st, a.req))
		return w
	}}
}

// admissionTable renders a row per ask. A decision is honest when the
// stream was refused up front or achieved at least its promised
// probability (within a 1 % measurement slack) of seconds at ≥98.5 % of
// the target.
func admissionTable(_ Params, results []Result) []Table {
	t := Table{Header: []string{"mode", "required_mbps", "promised", "admitted", "mean", "achieved_frac", "honest"}}
	for k, res := range results {
		a := admissionAsks[k]
		admitted := len(res.Rejected) == 0
		achieved := res.Streams[0].Summary.FractionAtLeast(a.req * 0.985)
		t.Rows = append(t.Rows, []string{
			a.mode, fmt.Sprintf("%.0f", a.req), fmt.Sprintf("%.2f", a.prob), fmt.Sprintf("%t", admitted),
			fmt.Sprintf("%.2f", res.Streams[0].Summary.Mean), fmt.Sprintf("%.3f", achieved),
			fmt.Sprintf("%t", !admitted || achieved+0.01 >= a.prob),
		})
	}
	return []Table{t}
}

// The predictor ablation runs IQPG-GridFTP twice — once with its
// statistical (percentile) predictions and once with mean predictions
// driving the identical scheduler — isolating the predictor's
// contribution. The GridFTP demand (DT1+DT2 ≈ 60 Mbps against a path
// whose *mean* covers it but whose lower percentiles do not) is exactly
// the regime where mean-based admission over-commits: the mean mapper
// packs both guaranteed streams onto path A and DT2 starves whenever the
// path dips, while the percentile mapper splits DT2 across paths.
func predictorTable(_ Params, results []Result) []Table {
	results[0].Algorithm, results[1].Algorithm = "PGOS(percentile)", "PGOS(mean-pred)"
	return []Table{RenderFig11(results, "DT1", "DT2")}
}
