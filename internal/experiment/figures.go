package experiment

import (
	"fmt"
	"slices"
	"strings"
)

// Params configure one pass over the figures: the testbed run every
// simulated figure shares, plus the sweeps the cluster, probing, matrix
// and multi-seed figures add.
type Params struct {
	// Run carries the seed and the measured and warm-up seconds.
	Run RunConfig
	// Cluster is the cluster figure's sweep; its seed comes from Run.
	Cluster ClusterConfig
	// Probing is the probing figure's sweep; its seed and its scheduler
	// runs come from Run.
	Probing ProbingConfig
	// Matrix is the grid the matrix figure runs.
	Matrix Matrix
	// Seeds are the seeds the multi-seed figure aggregates over.
	Seeds []int64
	// OnSuite, when set, receives the arm results of each §6 suite run
	// ("smartpointer" or "gridftp"), so a caller can use a run beyond
	// its tables without running it again.
	OnSuite func(workload string, results []Result)
}

// Figure is one entry of the evaluation: the names that select it with
// iqbench -fig (the first also names its CSV file), the title heading its
// output, its -fig group ("all" or "ablations", if any), and Run, which
// renders the tables iqbench prints and the figure's golden pins.
type Figure struct {
	Names        []string
	Title, Group string
	Run          func(Params) ([]Table, error)
}

// Arm lists of the two §6 suites, in paper order.
var (
	// SmartPointerArms are the §6.1 runs behind Figs. 9–11.
	SmartPointerArms = []string{AlgWFQ, AlgMSFQ, AlgPGOS, AlgOptSched}
	// GridFTPArms are the §6.2 runs — stock GridFTP's blocked and
	// partitioned layouts vs IQPG-GridFTP — behind Figs. 12 and 13.
	GridFTPArms = []string{AlgBlocked, AlgPartitioned, AlgPGOS}
)

// Figures is the registry, in output order. A simulated figure's row is
// a scenario, one sweep axis and its render (simulated); the others run
// no testbed, so they keep their own Run.
var Figures = []Figure{
	{[]string{"fig4", "4"}, "Figure 4: bandwidth prediction — mean predictors vs percentile prediction", "all",
		func(p Params) ([]Table, error) {
			return []Table{fig4Table(Fig4(Fig4Config{Seed: p.Run.Seed}))}, nil
		}},
	{[]string{"smartpointer", "9", "10", "11"},
		"Figures 9–11: SmartPointer throughput series, summary (target / mean / sustained 95% and 99% / stddev) and CDFs", "all",
		simulated(SmartPointer, arms(SmartPointerArms...), suiteTables("smartpointer", "Atom", "Bond1"))},
	{[]string{"gridftp", "12", "13"}, "Figures 12–13: GridFTP vs IQPG-GridFTP throughput series, summary and CDFs", "all",
		simulated(GridFTP, arms(GridFTPArms...), suiteTables("gridftp", "DT1", "DT2", "DT3"))},
	{[]string{"video"}, "Multimedia: MPEG-4 FGS layered video playback quality (tech-report companion)", "all",
		simulated(videoScenario, arms(AlgWFQ, AlgMSFQ, AlgPGOS), videoTable)},
	{[]string{"quantiles"}, "Ablation: percentile level sweep (extends Fig. 4)", "ablations",
		func(p Params) ([]Table, error) { return []Table{quantileSweep(p.Run.Seed)}, nil }},
	{[]string{"window"}, "Ablation: PGOS scheduling-window sweep", "ablations",
		simulated(SmartPointer, over(windowTws, func(c *RunConfig, _ *Scenario, tw float64) {
			c.Algorithm, c.TwSec = AlgPGOS, tw
		}), windowTable)},
	{[]string{"predictor"}, "Ablation: PGOS with a mean predictor (predictor contribution)", "ablations",
		simulated(GridFTP, over([]bool{false, true}, func(c *RunConfig, _ *Scenario, mean bool) {
			c.Algorithm, c.MeanPrediction = AlgPGOS, mean
		}), predictorTable)},
	{[]string{"admission"}, "Ablation: admission honesty — percentile vs mean admission on one path", "ablations",
		simulated(Scenario{Topology: fig8PathA}, over(admissionAsks, func(c *RunConfig, s *Scenario, a admissionAsk) {
			c.Algorithm, c.MeanPrediction, s.Workload = AlgPGOS, a.mode == "mean", oneAsk(a)
			c.DurationSec = max(c.DurationSec, admissionMinSec)
		}), admissionTable)},
	{[]string{"paths"}, "Ablation: path-count sweep (70 Mbps @ 95% across 1–4 paths)", "ablations",
		simulated(pathsScenario, over(pathCounts, func(c *RunConfig, s *Scenario, n int) {
			c.Algorithm, s.Topology = AlgPGOS, multiPath(n)
		}), pathsTable)},
	{[]string{"dispersion"}, "Ablation: oracle sampling vs live dispersion probing", "ablations",
		simulated(SmartPointer, over([]bool{false, true}, func(c *RunConfig, s *Scenario, probing bool) {
			c.Algorithm, s.Dispersion = AlgPGOS, probing
		}), dispersionTable)},
	{[]string{"violation-bound"}, "Violation-bound guarantee (Lemma 2) end-to-end: 30 Mbps, E[Z] <= 100 pkts/window", "ablations",
		simulated(violationBound(30, 100), arms(AlgPGOS), func(_ Params, results []Result) []Table {
			return violationBoundTables(results[0])
		})},
	{[]string{"faults"}, "Fault scenario: WFQ/MSFQ/PGOS recovery under an identical fault script", "",
		simulated(faultScenario, faultArms, func(p Params, results []Result) []Table {
			return []Table{faultsTable(faultsOf(p.Run, results))}
		})},
	{[]string{"churn"}, "Churn scenario: static routing vs control-plane rerouting under membership churn", "",
		simulated(churnScenario, churnModes, func(p Params, results []Result) []Table {
			return churnTables(churnOf(results))
		})},
	{[]string{"cluster"}, "Cluster: delta/anti-entropy gossip vs full flood across overlay sizes", "",
		func(p Params) ([]Table, error) {
			c := p.Cluster
			c.Seed = p.Run.Seed
			t, err := runCluster(c)
			return []Table{t}, err
		}},
	{[]string{"probing"}, "Probing: Bayesian active probe selection vs round-robin, + scheduler arms", "",
		func(p Params) ([]Table, error) {
			c := p.Probing
			c.Seed = p.Run.Seed
			sweep, err := runProbing(c)
			if err != nil {
				return nil, err
			}
			results, err := runAxis(p, SmartPointer, arms(AlgWFQ, AlgMSFQ, AlgPGOS, AlgBackpressure))
			if err != nil {
				return nil, err
			}
			return []Table{sweep, probingArmsTable(results)}, nil
		}},
	{[]string{"matrix"}, "Matrix: arms × workloads × bands × seeds (violated-window fraction, aggregate Mbps, delay jitter)", "",
		simulated(Scenario{}, matrixCells, matrixTable)},
	{[]string{"multiseed"}, "Multi-seed Fig. 11 aggregate (mean ± standard error across seeds)", "",
		simulated(SmartPointer, seedSuites, multiSeedTable)},
}

// faultArms and churnModes are the fault and churn figures' axes.
var (
	faultArms  = arms(AlgWFQ, AlgMSFQ, AlgPGOS)
	churnModes = over([]string{"static", "control"}, func(c *RunConfig, s *Scenario, mode string) {
		c.Algorithm, s.Churn = AlgPGOS, mode
	})
)

// suiteTables renders one §6 suite — the same workload and seed under
// each arm: every arm's throughput series (Fig. 9 / 12), the summary of
// the named streams (Fig. 11) and the CDFs (Fig. 10 / 13). It hands the
// runs to p.OnSuite first.
func suiteTables(workload string, streams ...string) func(Params, []Result) []Table {
	return func(p Params, results []Result) []Table {
		if p.OnSuite != nil {
			p.OnSuite(workload, results)
		}
		var tables []Table
		for _, res := range results {
			t := seriesTable(res)
			t.Title = "series " + workload + " " + res.Algorithm
			tables = append(tables, t)
		}
		summary, cdfs := RenderFig11(results, streams...), RenderCDFs(results)
		summary.Title, cdfs.Title = "summary", "cdfs"
		return append(tables, summary, cdfs)
	}
}

// Lookup returns the figures a -fig name selects: the figure of that
// name, or every member of the group of that name, in registry order.
func Lookup(name string) ([]Figure, error) {
	var out []Figure
	for _, f := range Figures {
		if slices.Contains(f.Names, name) || name != "" && f.Group == name {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown figure %q (want one of %s)", name, strings.Join(FigureNames(), ", "))
	}
	return out, nil
}

// FigureNames lists every name Lookup accepts: each figure's names in
// registry order, then the groups.
func FigureNames() []string {
	var names, groups []string
	for _, f := range Figures {
		names = append(names, f.Names...)
		if f.Group != "" && !slices.Contains(groups, f.Group) {
			groups = append(groups, f.Group)
		}
	}
	return append(names, groups...)
}
