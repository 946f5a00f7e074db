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

// Figure is one entry of the evaluation. Its Run renders the tables that
// iqbench prints and that the figure's golden pins, from one code path.
type Figure struct {
	// Names select the figure with iqbench -fig; the first also names its
	// CSV file.
	Names []string
	// Title heads the figure's output.
	Title string
	// Group is the -fig group ("all" or "ablations") the figure is in, if
	// any.
	Group string
	// Run runs the figure and renders its tables.
	Run func(Params) ([]Table, error)
}

// Arm lists of the two §6 suites, in paper order.
var (
	// SmartPointerArms are the §6.1 runs behind Figs. 9–11.
	SmartPointerArms = []string{AlgWFQ, AlgMSFQ, AlgPGOS, AlgOptSched}
	// GridFTPArms are the §6.2 runs — stock GridFTP's blocked and
	// partitioned layouts vs IQPG-GridFTP — behind Figs. 12 and 13.
	GridFTPArms = []string{AlgBlocked, AlgPartitioned, AlgPGOS}
)

// Figures is the registry, in output order.
var Figures = []Figure{
	{[]string{"fig4", "4"}, "Figure 4: bandwidth prediction — mean predictors vs percentile prediction", "all",
		func(p Params) ([]Table, error) {
			return []Table{fig4Table(Fig4(Fig4Config{Seed: p.Run.Seed}))}, nil
		}},
	{[]string{"smartpointer", "9", "10", "11"},
		"Figures 9–11: SmartPointer throughput series, summary (target / mean / sustained 95% and 99% / stddev) and CDFs", "all",
		suiteFigure("smartpointer", RunSmartPointer, SmartPointerArms, "Atom", "Bond1")},
	{[]string{"gridftp", "12", "13"}, "Figures 12–13: GridFTP vs IQPG-GridFTP throughput series, summary and CDFs", "all",
		suiteFigure("gridftp", RunGridFTP, GridFTPArms, "DT1", "DT2", "DT3")},
	{[]string{"video"}, "Multimedia: MPEG-4 FGS layered video playback quality (tech-report companion)", "all",
		oneTable(func(p Params) (Table, error) { return runVideo(p.Run, AlgWFQ, AlgMSFQ, AlgPGOS) })},
	{[]string{"quantiles"}, "Ablation: percentile level sweep (extends Fig. 4)", "ablations",
		oneTable(func(p Params) (Table, error) { return quantileSweep(p.Run.Seed), nil })},
	{[]string{"window"}, "Ablation: PGOS scheduling-window sweep", "ablations",
		oneTable(func(p Params) (Table, error) { return windowSweep(p.Run) })},
	{[]string{"predictor"}, "Ablation: PGOS with a mean predictor (predictor contribution)", "ablations",
		oneTable(func(p Params) (Table, error) { return meanPredictorAblation(p.Run) })},
	{[]string{"admission"}, "Ablation: admission honesty — percentile vs mean admission on one path", "ablations",
		oneTable(func(p Params) (Table, error) { return admissionAblation(p.Run) })},
	{[]string{"paths"}, "Ablation: path-count sweep (70 Mbps @ 95% across 1–4 paths)", "ablations",
		oneTable(func(p Params) (Table, error) { return pathsSweep(p.Run) })},
	{[]string{"dispersion"}, "Ablation: oracle sampling vs live dispersion probing", "ablations",
		oneTable(func(p Params) (Table, error) { return probingAblation(p.Run) })},
	{[]string{"violation-bound"}, "Violation-bound guarantee (Lemma 2) end-to-end: 30 Mbps, E[Z] <= 100 pkts/window", "ablations",
		func(p Params) ([]Table, error) {
			res, err := runViolationBound(p.Run, 30, 100)
			if err != nil {
				return nil, err
			}
			return violationBoundTables(res), nil
		}},
	{[]string{"faults"}, "Fault scenario: WFQ/MSFQ/PGOS recovery under an identical fault script", "",
		func(p Params) ([]Table, error) {
			res, err := runFaults(p.Run)
			if err != nil {
				return nil, err
			}
			return []Table{faultsTable(res)}, nil
		}},
	{[]string{"churn"}, "Churn scenario: static routing vs control-plane rerouting under membership churn", "",
		func(p Params) ([]Table, error) {
			res, err := runChurn(p.Run)
			if err != nil {
				return nil, err
			}
			return churnTables(res), nil
		}},
	{[]string{"cluster"}, "Cluster: delta/anti-entropy gossip vs full flood across overlay sizes", "",
		oneTable(func(p Params) (Table, error) {
			c := p.Cluster
			c.Seed = p.Run.Seed
			return runCluster(c)
		})},
	{[]string{"probing"}, "Probing: Bayesian active probe selection vs round-robin, + scheduler arms", "",
		func(p Params) ([]Table, error) {
			c := p.Probing
			c.Seed, c.SchedCfg = p.Run.Seed, p.Run
			return runProbing(c)
		}},
	{[]string{"matrix"}, "Matrix: arms × workloads × bands × seeds (violated-window fraction, aggregate Mbps, delay jitter)", "",
		oneTable(func(p Params) (Table, error) { return runMatrix(p.Matrix) })},
	{[]string{"multiseed"}, "Multi-seed Fig. 11 aggregate (mean ± standard error across seeds)", "",
		oneTable(func(p Params) (Table, error) { return multiSeed(p.Run, p.Seeds) })},
}

// oneTable adapts a figure that renders a single table.
func oneTable(run func(Params) (Table, error)) func(Params) ([]Table, error) {
	return func(p Params) ([]Table, error) {
		t, err := run(p)
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
}

// suiteFigure runs one §6 suite — the same workload and seed under each
// arm — and renders every arm's throughput series (Fig. 9 / 12), the
// summary of the named streams (Fig. 11) and the CDFs (Fig. 10 / 13).
func suiteFigure(workload string, run func(RunConfig) (Result, error), arms []string, streams ...string) func(Params) ([]Table, error) {
	return func(p Params) ([]Table, error) {
		results, err := RunArms(p.Run, run, arms...)
		if err != nil {
			return nil, err
		}
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
		return append(tables, summary, cdfs), nil
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
