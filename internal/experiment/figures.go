package experiment

import (
	"fmt"
	"slices"
)

// Suite bundles the runs of one evaluation subsection — the same workload
// and seed under each algorithm — from which Figs. 9–11 (SmartPointer) or
// Figs. 12–13 (GridFTP) are rendered.
type Suite struct {
	// Workload is "smartpointer" or "gridftp".
	Workload string
	// Order lists algorithms in paper order.
	Order []string
	// Results maps algorithm name to its run.
	Results map[string]Result
}

// RunSmartPointerSuite executes the four §6.1 runs (WFQ, MSFQ, PGOS,
// OptSched) over the same seeded testbed, producing the data behind
// Figs. 9, 10, and 11.
func RunSmartPointerSuite(cfg RunConfig) (*Suite, error) {
	s := &Suite{
		Workload: "smartpointer",
		Order:    []string{AlgWFQ, AlgMSFQ, AlgPGOS, AlgOptSched},
		Results:  map[string]Result{},
	}
	for _, alg := range s.Order {
		c := cfg
		c.Algorithm = alg
		res, err := RunSmartPointer(c)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", alg, err)
		}
		s.Results[alg] = res
	}
	return s, nil
}

// RunGridFTPSuite executes the §6.2 runs — stock GridFTP's blocked and
// partitioned layouts vs IQPG-GridFTP — behind Figs. 12 and 13.
func RunGridFTPSuite(cfg RunConfig) (*Suite, error) {
	s := &Suite{
		Workload: "gridftp",
		Order:    []string{AlgBlocked, AlgPartitioned, AlgPGOS},
		Results:  map[string]Result{},
	}
	for _, alg := range s.Order {
		c := cfg
		c.Algorithm = alg
		res, err := RunGridFTP(c)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", alg, err)
		}
		s.Results[alg] = res
	}
	return s, nil
}

// Fig11Row is one bar group of Figure 11: how one algorithm served one
// stream.
type Fig11Row struct {
	Algorithm string
	Stream    string
	Target    float64 // required bandwidth (Mbps)
	Mean      float64
	P95Time   float64 // level sustained 95 % of the time
	P99Time   float64 // level sustained 99 % of the time
	StdDev    float64
	JitterMs  float64 // frame jitter, where frames are tracked
}

// Fig11 condenses a suite into the paper's Figure 11 rows for the named
// streams (e.g. Atom and Bond1 — the two §6.1 bar charts).
func (s *Suite) Fig11(streams ...string) []Fig11Row {
	var rows []Fig11Row
	for _, alg := range s.Order {
		res := s.Results[alg]
		for _, ss := range res.Streams {
			if !slices.Contains(streams, ss.Name) {
				continue
			}
			rows = append(rows, fig11Row(alg, ss))
		}
	}
	return rows
}

// fig11Row condenses how one algorithm served one stream.
func fig11Row(alg string, ss StreamSeries) Fig11Row {
	return Fig11Row{
		Algorithm: alg,
		Stream:    ss.Name,
		Target:    ss.RequiredMbps,
		Mean:      ss.Summary.Mean,
		P95Time:   ss.Summary.SustainedAt(0.95),
		P99Time:   ss.Summary.SustainedAt(0.99),
		StdDev:    ss.Summary.StdDev,
		JitterMs:  ss.JitterSec() * 1000,
	}
}

// CDFRow is one point of a throughput CDF (Figs. 10 and 13).
type CDFRow struct {
	Algorithm string
	Stream    string
	// Mbps[q] is the throughput at cumulative probability Quantiles[q].
	Mbps []float64
}

// CDFQuantiles are the cumulative-probability points rendered for CDF
// figures.
var CDFQuantiles = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// CDFs renders the per-stream throughput CDFs of every run in the suite.
func (s *Suite) CDFs() []CDFRow {
	var rows []CDFRow
	for _, alg := range s.Order {
		for _, ss := range s.Results[alg].Streams {
			row := CDFRow{Algorithm: alg, Stream: ss.Name}
			for _, q := range CDFQuantiles {
				// Summary.SustainedAt(1-q) is the q-quantile of the series.
				row.Mbps = append(row.Mbps, ss.Summary.SustainedAt(1-q))
			}
			rows = append(rows, row)
		}
	}
	return rows
}
