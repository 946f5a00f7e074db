package experiment

import (
	"fmt"
	"math"

	"iqpaths/internal/stats"
)

// multiSeed runs the §6.1 suite across the given seeds and aggregates the
// Fig. 11 quantities of Atom and Bond1 per algorithm: the across-seed mean
// of each run's mean, sustained-95 % level and σ beside its standard
// error, so readers can judge whether the contrasts exceed run-to-run
// variation.
func multiSeed(cfg RunConfig, seeds []int64) (Table, error) {
	if len(seeds) == 0 {
		return Table{}, fmt.Errorf("experiment: multi-seed aggregate needs at least one seed")
	}
	suites, err := sweep(cfg, seeds, func(c *RunConfig, seed int64) { c.Seed = seed }, func(c RunConfig) ([]Result, error) {
		return RunArms(c, RunSmartPointer, SmartPointerArms...)
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"algorithm", "stream", "target", "seeds", "mean", "mean_se",
		"sustained95", "sustained95_se", "stddev", "stddev_se"}}
	for a, res := range suites[0] {
		for s, ss := range res.Streams {
			if ss.Name != "Atom" && ss.Name != "Bond1" {
				continue
			}
			var mean, sustained, stdev stats.Welford
			for _, suite := range suites {
				sum := suite[a].Streams[s].Summary
				mean.Add(sum.Mean)
				sustained.Add(sum.SustainedAt(0.95))
				stdev.Add(sum.StdDev)
			}
			cells := []string{res.Algorithm, ss.Name, fmt.Sprintf("%.3f", ss.RequiredMbps), fmt.Sprintf("%d", mean.N())}
			for _, w := range []*stats.Welford{&mean, &sustained, &stdev} {
				se := 0.0
				if w.N() >= 2 {
					se = w.StdDev() / math.Sqrt(float64(w.N()))
				}
				cells = append(cells, fmt.Sprintf("%.4f", w.Mean()), fmt.Sprintf("%.4f", se))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return t, nil
}
