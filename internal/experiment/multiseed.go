package experiment

import (
	"fmt"
	"math"
	"strings"

	"iqpaths/internal/stats"
)

// AggRow is one algorithm × stream cell aggregated across seeds: the mean
// of each per-run quantity with its standard error, so readers can judge
// whether the contrasts exceed run-to-run variation.
type AggRow struct {
	Algorithm string
	Stream    string
	Target    float64
	// Mean±, Sustained± and StdDev± are across-seed means and standard
	// errors of the per-run mean, sustained-95 %, and σ.
	Mean, MeanSE           float64
	Sustained, SustainedSE float64
	StdDev, StdDevSE       float64
	Seeds                  int
}

// MultiSeedSmartPointer runs the §6.1 suite across the given seeds and
// aggregates the Fig. 11 quantities per algorithm and stream.
func MultiSeedSmartPointer(cfg RunConfig, seeds []int64, streams ...string) ([]AggRow, error) {
	if len(streams) == 0 {
		streams = []string{"Atom", "Bond1"}
	}
	type cell struct {
		target                 float64
		mean, sustained, stdev stats.Welford
	}
	cells := map[string]*cell{}
	order := []string{}
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		suite, err := RunSmartPointerSuite(c)
		if err != nil {
			return nil, err
		}
		for _, row := range suite.Fig11(streams...) {
			key := row.Algorithm + "\x00" + row.Stream
			cl := cells[key]
			if cl == nil {
				cl = &cell{target: row.Target}
				cells[key] = cl
				order = append(order, key)
			}
			cl.mean.Add(row.Mean)
			cl.sustained.Add(row.P95Time)
			cl.stdev.Add(row.StdDev)
		}
	}
	var rows []AggRow
	for _, key := range order {
		cl := cells[key]
		alg, stream, _ := strings.Cut(key, "\x00")
		n := float64(cl.mean.N())
		se := func(w *stats.Welford) float64 {
			if w.N() < 2 {
				return 0
			}
			return w.StdDev() / math.Sqrt(n)
		}
		rows = append(rows, AggRow{
			Algorithm: alg, Stream: stream, Target: cl.target, Seeds: int(cl.mean.N()),
			Mean: cl.mean.Mean(), MeanSE: se(&cl.mean),
			Sustained: cl.sustained.Mean(), SustainedSE: se(&cl.sustained),
			StdDev: cl.stdev.Mean(), StdDevSE: se(&cl.stdev),
		})
	}
	return rows, nil
}

// RenderAgg renders the multi-seed aggregate rows: each quantity's
// across-seed mean beside its standard error.
func RenderAgg(rows []AggRow) Table {
	t := Table{Header: []string{"algorithm", "stream", "target", "seeds", "mean", "mean_se",
		"sustained95", "sustained95_se", "stddev", "stddev_se"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Algorithm, r.Stream,
			fmt.Sprintf("%.3f", r.Target), fmt.Sprintf("%d", r.Seeds),
			fmt.Sprintf("%.4f", r.Mean), fmt.Sprintf("%.4f", r.MeanSE),
			fmt.Sprintf("%.4f", r.Sustained), fmt.Sprintf("%.4f", r.SustainedSE),
			fmt.Sprintf("%.4f", r.StdDev), fmt.Sprintf("%.4f", r.StdDevSE),
		})
	}
	return t
}
