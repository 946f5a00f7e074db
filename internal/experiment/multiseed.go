package experiment

import (
	"fmt"
	"math"

	"iqpaths/internal/stats"
)

// seedSuites is the multi-seed figure's axis: the §6.1 suite under each
// of p.Seeds, arm-minor.
func seedSuites(p Params) ([]point, error) {
	if len(p.Seeds) == 0 {
		return nil, fmt.Errorf("experiment: multi-seed aggregate needs at least one seed")
	}
	var pts []point
	for _, seed := range p.Seeds {
		for _, arm := range SmartPointerArms {
			pts = append(pts, func(c *RunConfig, _ *Scenario) { c.Seed, c.Algorithm = seed, arm })
		}
	}
	return pts, nil
}

// multiSeedTable aggregates the Fig. 11 quantities of Atom and Bond1 per
// algorithm across the seeds: the across-seed mean of each run's mean,
// sustained-95 % level and σ beside its standard error, so readers can
// judge whether the contrasts exceed run-to-run variation.
func multiSeedTable(_ Params, results []Result) []Table {
	n := len(SmartPointerArms)
	t := Table{Header: []string{"algorithm", "stream", "target", "seeds", "mean", "mean_se",
		"sustained95", "sustained95_se", "stddev", "stddev_se"}}
	for a, res := range results[:n] {
		for s, ss := range res.Streams {
			if ss.Name != "Atom" && ss.Name != "Bond1" {
				continue
			}
			var mean, sustained, stdev stats.Welford
			for k := a; k < len(results); k += n {
				sum := results[k].Streams[s].Summary
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
	return []Table{t}
}
