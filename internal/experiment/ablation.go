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

// QuantileRow is one row of the percentile-level sweep: how reliable the
// statistical prediction is as the promised probability level varies.
type QuantileRow struct {
	// Quantile is the predicted percentile (0.05 → "95 % of the time").
	Quantile float64
	// FailRate is the measured prediction failure rate.
	FailRate float64
	// MeanErr is the mean predictors' error on the same series (constant
	// across rows; included for contrast).
	MeanErr float64
}

// QuantileSweep extends Fig. 4: it fixes the measurement window at 0.5 s
// and sweeps the predicted percentile from p5 to p30. Lower percentiles
// promise less bandwidth but fail less often — the knob an application
// turns when it asks for 99 % instead of 95 % assurance.
func QuantileSweep(seed int64) []QuantileRow {
	rng := rand.New(rand.NewSource(seed))
	cross := trace.Take(trace.NewNLANRLike(trace.DefaultNLANR(), rng), 60000)
	avail := predict.Aggregate(trace.AvailableBandwidth(100, cross), 5)
	var rows []QuantileRow
	for _, q := range []float64{0.05, 0.10, 0.20, 0.30} {
		res := predict.Evaluate(avail, predict.EvalConfig{WindowN: 500, Quantile: q, Horizon: 10})
		rows = append(rows, QuantileRow{Quantile: q, FailRate: res.PercentileFailureRate, MeanErr: res.MeanErrAvg})
	}
	return rows
}

// RenderQuantileSweep renders the sweep rows.
func RenderQuantileSweep(rows []QuantileRow) Table {
	header := []string{"quantile", "pctl_fail_rate", "mean_pred_err"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.Quantile),
			fmt.Sprintf("%.4f", r.FailRate),
			fmt.Sprintf("%.4f", r.MeanErr),
		})
	}
	return Table{Header: header, Rows: out}
}

// WindowRow is one row of the scheduling-window sweep.
type WindowRow struct {
	TwSec      float64
	Stream     string
	Sustained  float64 // level sustained 95 % of the time
	StdDev     float64
	BestEffort float64 // Bond2 mean (the cost side)
}

// WindowSweep reruns the SmartPointer PGOS experiment across scheduling
// windows tw — the paper operates at 1 s; shorter windows react faster but
// schedule fewer packets per vector, longer windows smooth more.
func WindowSweep(cfg RunConfig) ([]WindowRow, error) {
	var rows []WindowRow
	for _, tw := range []float64{0.25, 0.5, 1, 2, 4} {
		c := cfg
		c.Algorithm = AlgPGOS
		c.TwSec = tw
		res, err := RunSmartPointer(c)
		if err != nil {
			return nil, err
		}
		for _, i := range []int{0, 1} {
			rows = append(rows, WindowRow{
				TwSec:      tw,
				Stream:     res.Streams[i].Name,
				Sustained:  res.Streams[i].Summary.SustainedAt(0.95),
				StdDev:     res.Streams[i].Summary.StdDev,
				BestEffort: res.Streams[2].Summary.Mean,
			})
		}
	}
	return rows, nil
}

// RenderWindowSweep renders the sweep rows.
func RenderWindowSweep(rows []WindowRow) Table {
	header := []string{"tw_s", "stream", "sustained_95pct", "stddev", "bond2_mean"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.TwSec),
			r.Stream,
			fmt.Sprintf("%.3f", r.Sustained),
			fmt.Sprintf("%.4f", r.StdDev),
			fmt.Sprintf("%.2f", r.BestEffort),
		})
	}
	return Table{Header: header, Rows: out}
}

// AdmissionRow is one row of the admission-honesty ablation.
type AdmissionRow struct {
	Mode         string  // "percentile" or "mean"
	RequiredMbps float64 // the bandwidth requested
	Probability  float64 // the promised assurance level
	Admitted     bool    // did admission control accept?
	Mean         float64 // delivered mean (Mbps)
	AchievedFrac float64 // fraction of seconds at ≥98.5 % of the target
}

// Honest reports whether the admission decision kept its word: either the
// stream was refused up front, or it achieved at least its promised
// probability (within a 1 % measurement slack).
func (r AdmissionRow) Honest() bool {
	return !r.Admitted || r.AchievedFrac+0.01 >= r.Probability
}

// AdmissionAblation contrasts admission *honesty*: one stream asks for R
// Mbps at 95 % on a single overlay path as R climbs toward the path's
// capacity. Percentile-based admission (IQ-Paths) only accepts what the
// bandwidth distribution's lower tail supports and keeps its promises;
// mean-based admission accepts anything below the mean and breaks them.
// Multi-path rescue (precedence rule 2) is disabled by the single path so
// the predictor alone carries the guarantee.
func AdmissionAblation(cfg RunConfig) ([]AdmissionRow, error) {
	cfg.fillDefaults()
	if cfg.DurationSec < 400 {
		// Long enough to include congestion episodes (~2 % duty, ~30 s
		// long); short windows can miss them and flatter the mean mapper.
		cfg.DurationSec = 400
	}
	var rows []AdmissionRow
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
				return nil, err
			}
			rows = append(rows, AdmissionRow{
				Mode:         mode,
				RequiredMbps: a.req,
				Probability:  a.prob,
				Admitted:     len(res.Rejected) == 0,
				Mean:         res.Streams[0].Summary.Mean,
				AchievedFrac: res.Streams[0].Summary.FractionAtLeast(a.req * 0.985),
			})
		}
	}
	return rows, nil
}

// RenderAdmission renders the admission-honesty rows.
func RenderAdmission(rows []AdmissionRow) Table {
	header := []string{"mode", "required_mbps", "promised", "admitted", "mean", "achieved_frac", "honest"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mode,
			fmt.Sprintf("%.0f", r.RequiredMbps),
			fmt.Sprintf("%.2f", r.Probability),
			fmt.Sprintf("%t", r.Admitted),
			fmt.Sprintf("%.2f", r.Mean),
			fmt.Sprintf("%.3f", r.AchievedFrac),
			fmt.Sprintf("%t", r.Honest()),
		})
	}
	return Table{Header: header, Rows: out}
}

// MeanPredictorAblation runs IQPG-GridFTP twice — once with its
// statistical (percentile) predictions and once with mean predictions
// driving the identical scheduler — isolating the predictor's
// contribution. The GridFTP demand (DT1+DT2 ≈ 60 Mbps against a path
// whose *mean* covers it but whose lower percentiles do not) is exactly
// the regime where mean-based admission over-commits: the mean mapper
// packs both guaranteed streams onto path A and DT2 starves whenever the
// path dips, while the percentile mapper splits DT2 across paths.
func MeanPredictorAblation(cfg RunConfig) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, mean := range []bool{false, true} {
		c := cfg
		c.Algorithm = AlgPGOS
		c.MeanPrediction = mean
		res, err := RunGridFTP(c)
		if err != nil {
			return nil, err
		}
		label := "PGOS(percentile)"
		if mean {
			label = "PGOS(mean-pred)"
		}
		rows = append(rows, fig11Row(label, res.Streams[0]), fig11Row(label, res.Streams[1]))
	}
	return rows, nil
}
