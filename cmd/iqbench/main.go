// Command iqbench regenerates the paper's tables and figures on the
// emulated testbed and prints the same rows/series the paper reports.
//
// Usage:
//
//	iqbench -fig 4            # bandwidth prediction (Fig. 4)
//	iqbench -fig 9            # SmartPointer throughput time series (Fig. 9)
//	iqbench -fig 10           # SmartPointer throughput CDFs (Fig. 10)
//	iqbench -fig 11           # SmartPointer summary bars (Fig. 11)
//	iqbench -fig 12           # GridFTP vs IQPG time series (Fig. 12)
//	iqbench -fig 13           # GridFTP vs IQPG CDFs (Fig. 13)
//	iqbench -fig video        # MPEG-4 FGS layered video playback quality
//	iqbench -fig faults       # WFQ/MSFQ/PGOS under a scripted fault scenario
//	iqbench -fig churn        # static routing vs control-plane rerouting under churn
//	iqbench -fig scale        # sharded data plane scaling sweep (-shards, -streams)
//	iqbench -fig cluster      # cluster-scale gossip dissemination sweep (-nodes)
//	iqbench -fig probing      # Bayesian active probing vs round-robin (-paths) + Backpressure arm
//	iqbench -fig matrix       # scheduler arm × workload × scenario band grid (-arms, -workloads, -bands, -mseeds)
//	iqbench -fig multiseed    # Fig. 11 aggregated over -seeds seeds (mean ± standard error)
//	iqbench -fig all          # everything
//	iqbench -fig ablations    # DESIGN.md §5 ablation sweeps
//
// Flags -seed, -duration, -warmup control the run; -csv switches output
// from aligned tables to CSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"iqpaths/internal/experiment"
	"iqpaths/internal/report"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, ", "))
		seed     = flag.Int64("seed", 42, "experiment seed")
		duration = flag.Float64("duration", 150, "measured seconds per run")
		warmup   = flag.Float64("warmup", 60, "warm-up seconds before measurement")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir   = flag.String("out", "", "also write each table as a CSV file into this directory")
		seeds    = flag.Int("seeds", 0, "with -fig multiseed: number of seeds to aggregate over")
		shards   = flag.Int("shards", 8, "with -fig scale: largest shard count in the sweep (powers of two up to this)")
		streams  = flag.Int("streams", 10000, "with -fig scale: total stream count")
		nodes    = flag.String("nodes", "100,1000,5000", "with -fig cluster: comma-separated overlay sizes to sweep")
		paths    = flag.String("paths", "100,1000,5000", "with -fig probing: comma-separated overlay sizes to sweep")
		arms     = flag.String("arms", "", "with -fig matrix: comma-separated scheduler arms (default WFQ,MSFQ,PGOS,Backpressure)")
		works    = flag.String("workloads", "", "with -fig matrix: comma-separated workloads (default all)")
		bands    = flag.String("bands", "", "with -fig matrix: comma-separated scenario bands (default all)")
		mseeds   = flag.String("mseeds", "1,7,42", "with -fig matrix: comma-separated seeds")
		htmlPath = flag.String("html", "", "write a self-contained HTML report (charts + tables) to this file")
		telePath = flag.String("telemetry", "", "write the PGOS SmartPointer run's telemetry snapshot (JSON) to this file")
	)
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "iqbench:", err)
			os.Exit(1)
		}
		teeDir = *outDir
	}
	seedCount = *seeds
	scaleShards = *shards
	scaleStreams = *streams
	clusterNodes = *nodes
	probingPaths = *paths
	matrixArms = *arms
	matrixWorkloads = *works
	matrixBands = *bands
	matrixSeeds = *mseeds
	if *htmlPath != "" {
		if err := writeHTML(*htmlPath, *seed, *duration, *warmup); err != nil {
			fmt.Fprintln(os.Stderr, "iqbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, *seed, *duration, *warmup, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "iqbench:", err)
		os.Exit(1)
	}
	if *telePath != "" {
		cfg := experiment.RunConfig{Seed: *seed, DurationSec: *duration, WarmupSec: *warmup}
		if err := dumpTelemetry(*telePath, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "iqbench:", err)
			os.Exit(1)
		}
	}
}

// dumpTelemetry writes the PGOS SmartPointer run's end-of-run telemetry
// snapshot as JSON. When the figure set already ran the SmartPointer
// suite its PGOS result is reused; otherwise one run is executed.
func dumpTelemetry(path string, cfg experiment.RunConfig) error {
	var res experiment.Result
	if spSuite != nil {
		res = spSuite.Results[experiment.AlgPGOS]
	} else {
		cfg.Algorithm = experiment.AlgPGOS
		var err error
		res, err = experiment.RunSmartPointer(cfg)
		if err != nil {
			return err
		}
	}
	if res.Telemetry == nil {
		return fmt.Errorf("PGOS run produced no telemetry snapshot")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Telemetry.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote telemetry snapshot", path)
	return nil
}

// writeHTML runs the full figure set and renders the HTML report.
func writeHTML(path string, seed int64, duration, warmup float64) error {
	cfg := experiment.RunConfig{Seed: seed, DurationSec: duration, WarmupSec: warmup}
	smart, err := smartPointerSuite(cfg)
	if err != nil {
		return err
	}
	grid, err := gridFTPSuite(cfg)
	if err != nil {
		return err
	}
	video, err := experiment.RunVideo(cfg, experiment.AlgWFQ, experiment.AlgMSFQ, experiment.AlgPGOS)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report.Generate(f, report.Data{
		Fig4:        experiment.Fig4(experiment.Fig4Config{Seed: seed}),
		SmartSuite:  smart,
		GridSuite:   grid,
		Video:       video,
		GeneratedBy: fmt.Sprintf("iqbench -html, seed %d, %gs measured after %gs warm-up", seed, duration, warmup),
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// figures lists every -fig value run accepts, for the flag's usage and
// the unknown-figure error.
var figures = []string{"4", "9", "10", "11", "12", "13", "video", "faults", "churn",
	"scale", "cluster", "probing", "matrix", "multiseed", "all", "ablations"}

func run(fig string, seed int64, duration, warmup float64, csv bool) error {
	cfg := experiment.RunConfig{Seed: seed, DurationSec: duration, WarmupSec: warmup}
	switch fig {
	case "4":
		return fig4(seed, csv)
	case "9", "10", "11":
		return smartPointer(fig, cfg, csv)
	case "12", "13":
		return gridFTP(fig, cfg, csv)
	case "all":
		if err := fig4(seed, csv); err != nil {
			return err
		}
		for _, f := range []string{"9", "10", "11"} {
			if err := smartPointer(f, cfg, csv); err != nil {
				return err
			}
		}
		for _, f := range []string{"12", "13"} {
			if err := gridFTP(f, cfg, csv); err != nil {
				return err
			}
		}
		return videoFig(cfg, csv)
	case "ablations":
		return ablations(cfg, csv)
	case "video":
		return videoFig(cfg, csv)
	case "faults":
		return faultsFig(cfg, csv)
	case "churn":
		return churnFig(cfg, csv)
	case "scale":
		return scaleFig(cfg, csv)
	case "cluster":
		return clusterFig(cfg, csv)
	case "probing":
		return probingFig(cfg, csv)
	case "matrix":
		return matrixFig(csv)
	case "multiseed":
		n := seedCount
		if n <= 1 {
			n = 5
		}
		list := make([]int64, n)
		for i := range list {
			list[i] = seed + int64(i)
		}
		banner(fmt.Sprintf("Multi-seed Fig. 11 aggregate over %d seeds (mean ± standard error)", n))
		rows, err := experiment.MultiSeedSmartPointer(cfg, list)
		if err != nil {
			return err
		}
		return tee(func(w io.Writer, csv bool) error { return experiment.RenderAgg(w, rows, csv) }, csv)
	default:
		return fmt.Errorf("unknown figure %q (want one of %s)", fig, strings.Join(figures, ", "))
	}
}

// teeDir, when set, receives a CSV copy of each rendered table.
var teeDir string

// seedCount is the -seeds flag value (multiseed figure).
var seedCount int

// scaleShards and scaleStreams are the -shards / -streams flag values
// (scale figure).
var scaleShards, scaleStreams int

// clusterNodes is the -nodes flag value (cluster figure).
var clusterNodes string

// probingPaths is the -paths flag value (probing figure).
var probingPaths string

// matrixArms/matrixWorkloads/matrixBands/matrixSeeds are the -fig matrix
// flag values (empty = grid default).
var matrixArms, matrixWorkloads, matrixBands, matrixSeeds string

// currentSection names the file the next table tees into.
var currentSection string

func banner(s string) {
	fmt.Printf("\n== %s ==\n", s)
	currentSection = s
}

// out returns the writer for a table: stdout, teed into a CSV file when
// -out is set (the file gets the CSV rendering regardless of -csv).
func tee(render func(w io.Writer, csv bool) error, csv bool) error {
	if err := render(os.Stdout, csv); err != nil {
		return err
	}
	if teeDir == "" {
		return nil
	}
	name := slug(currentSection) + ".csv"
	f, err := os.Create(filepath.Join(teeDir, name))
	if err != nil {
		return err
	}
	if err := render(f, true); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-' || r == ':':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return strings.Trim(string(out), "_")
}

func fig4(seed int64, csv bool) error {
	banner("Figure 4: bandwidth prediction — mean predictors vs percentile prediction")
	points := experiment.Fig4(experiment.Fig4Config{Seed: seed})
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderFig4(w, points, csv) }, csv)
}

var spSuite *experiment.Suite

func smartPointerSuite(cfg experiment.RunConfig) (*experiment.Suite, error) {
	if spSuite != nil {
		return spSuite, nil
	}
	s, err := experiment.RunSmartPointerSuite(cfg)
	if err == nil {
		spSuite = s
	}
	return s, err
}

func smartPointer(fig string, cfg experiment.RunConfig, csv bool) error {
	suite, err := smartPointerSuite(cfg)
	if err != nil {
		return err
	}
	switch fig {
	case "9":
		banner("Figure 9: SmartPointer throughput time series (Mbps per second)")
		for _, alg := range suite.Order {
			fmt.Printf("\n-- Fig 9, %s --\n", alg)
			currentSection = "fig9 " + alg
			res := suite.Results[alg]
			if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderSeries(w, res, csv) }, csv); err != nil {
				return err
			}
		}
	case "10":
		banner("Figure 10: SmartPointer throughput CDFs")
		rows := suite.CDFs()
		return tee(func(w io.Writer, csv bool) error { return experiment.RenderCDFs(w, rows, csv) }, csv)
	case "11":
		banner("Figure 11: target / mean / sustained-95% / sustained-99% / stddev")
		rows := suite.Fig11("Atom", "Bond1")
		return tee(func(w io.Writer, csv bool) error { return experiment.RenderFig11(w, rows, csv) }, csv)
	}
	return nil
}

var gfSuite *experiment.Suite

func gridFTPSuite(cfg experiment.RunConfig) (*experiment.Suite, error) {
	if gfSuite != nil {
		return gfSuite, nil
	}
	s, err := experiment.RunGridFTPSuite(cfg)
	if err == nil {
		gfSuite = s
	}
	return s, err
}

func gridFTP(fig string, cfg experiment.RunConfig, csv bool) error {
	suite, err := gridFTPSuite(cfg)
	if err != nil {
		return err
	}
	switch fig {
	case "12":
		banner("Figure 12: GridFTP vs IQPG-GridFTP throughput time series")
		for _, alg := range suite.Order {
			fmt.Printf("\n-- Fig 12, %s --\n", alg)
			currentSection = "fig12 " + alg
			res := suite.Results[alg]
			if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderSeries(w, res, csv) }, csv); err != nil {
				return err
			}
		}
	case "13":
		banner("Figure 13: GridFTP vs IQPG-GridFTP throughput CDFs")
		rows := suite.CDFs()
		return tee(func(w io.Writer, csv bool) error { return experiment.RenderCDFs(w, rows, csv) }, csv)
	}
	return nil
}

func ablations(cfg experiment.RunConfig, csv bool) error {
	banner("Ablation: percentile level sweep (extends Fig. 4)")
	qs := experiment.QuantileSweep(cfg.Seed)
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderQuantileSweep(w, qs, csv) }, csv); err != nil {
		return err
	}
	banner("Ablation: PGOS scheduling-window sweep")
	rows, err := experiment.WindowSweep(cfg)
	if err != nil {
		return err
	}
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderWindowSweep(w, rows, csv) }, csv); err != nil {
		return err
	}
	banner("Ablation: PGOS with a mean predictor (predictor contribution)")
	mp, err := experiment.MeanPredictorAblation(cfg)
	if err != nil {
		return err
	}
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderFig11(w, mp, csv) }, csv); err != nil {
		return err
	}
	banner("Ablation: admission honesty — percentile vs mean admission on one path")
	ad, err := experiment.AdmissionAblation(cfg)
	if err != nil {
		return err
	}
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderAdmission(w, ad, csv) }, csv); err != nil {
		return err
	}
	banner("Ablation: path-count sweep (70 Mbps @ 95% across 1–4 paths)")
	ps, err := experiment.PathsSweep(cfg)
	if err != nil {
		return err
	}
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderPathsSweep(w, ps, csv) }, csv); err != nil {
		return err
	}
	banner("Ablation: oracle sampling vs live dispersion probing")
	pr, err := experiment.ProbingAblation(cfg)
	if err != nil {
		return err
	}
	if err := tee(func(w io.Writer, csv bool) error { return experiment.RenderProbing(w, pr, csv) }, csv); err != nil {
		return err
	}
	banner("Violation-bound guarantee (Lemma 2) end-to-end")
	vb, err := experiment.RunViolationBound(cfg, 30, 100)
	if err != nil {
		return err
	}
	fmt.Printf("ask: %.0f Mbps, E[Z] <= %.0f pkts/window  ->  admitted=%t, measured mean violations %.2f/window (worst %.0f)\n",
		vb.RequiredMbps, vb.MaxViolations, vb.Admitted, vb.MeanViolations, vb.WorstViolations)
	return nil
}

func faultsFig(cfg experiment.RunConfig, csv bool) error {
	banner("Fault scenario: WFQ/MSFQ/PGOS recovery under an identical fault script")
	res, err := experiment.RunFaults(cfg)
	if err != nil {
		return err
	}
	tl := res.Timeline
	fmt.Printf("script on %s: outage [%.0fs, %.0fs), %.0f%% loss storm [%.0fs, %.0fs), %d× flap from %.0fs (%.1fs down / %.1fs up)\n",
		tl.Link, tl.OutageStartSec, tl.OutageEndSec, 100*tl.StormProb,
		tl.StormStartSec, tl.StormEndSec, tl.FlapCycles, tl.FlapStartSec, tl.FlapDownSec, tl.FlapUpSec)
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderFaults(w, res, csv) }, csv)
}

func churnFig(cfg experiment.RunConfig, csv bool) error {
	banner("Churn scenario: static routing vs control-plane rerouting under membership churn")
	res, err := experiment.RunChurn(cfg)
	if err != nil {
		return err
	}
	tl := res.Timeline
	fmt.Printf("script: router %s fails at %.0fs and rejoins at %.0fs; gossip every %.1fs, failure detection %.1fs\n",
		tl.FailNode, tl.FailSec, tl.RejoinSec, tl.GossipSec, tl.DetectSec)
	for _, d := range res.Admission {
		if d.Admitted {
			fmt.Printf("admission: %s -> admitted\n", d.Spec)
			continue
		}
		best := "nothing feasible"
		if d.BestSpec != nil {
			best = fmt.Sprintf("best feasible %s", *d.BestSpec)
			if d.BestProbability > 0 {
				best += fmt.Sprintf(" (or %.0f Mbps @ %.0f%%)", d.Spec.RequiredMbps, 100*d.BestProbability)
			}
		}
		fmt.Printf("admission: %s -> rejected (%s); upcall: %s\n", d.Spec, d.Reason, best)
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderChurn(w, res, csv) }, csv)
}

func scaleFig(cfg experiment.RunConfig, csv bool) error {
	var sweep []int
	for n := 1; n <= scaleShards; n *= 2 {
		sweep = append(sweep, n)
	}
	banner(fmt.Sprintf("Scale: sharded data plane, %d streams across %v shards (GOMAXPROCS=%d)",
		scaleStreams, sweep, runtime.GOMAXPROCS(0)))
	rows, err := experiment.RunScale(experiment.ScaleConfig{
		Streams: scaleStreams,
		Shards:  sweep,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return err
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderScale(w, rows, csv) }, csv)
}

func clusterFig(cfg experiment.RunConfig, csv bool) error {
	var sizes []int
	for _, f := range strings.Split(clusterNodes, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return fmt.Errorf("-nodes: invalid overlay size %q", f)
		}
		sizes = append(sizes, n)
	}
	banner(fmt.Sprintf("Cluster: delta/anti-entropy gossip vs full flood across %v nodes", sizes))
	rows, err := experiment.RunCluster(experiment.ClusterConfig{Nodes: sizes, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderCluster(w, rows, csv) }, csv)
}

func probingFig(cfg experiment.RunConfig, csv bool) error {
	var sizes []int
	for _, f := range strings.Split(probingPaths, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return fmt.Errorf("-paths: invalid overlay size %q", f)
		}
		sizes = append(sizes, n)
	}
	banner(fmt.Sprintf("Probing: Bayesian active probe selection vs round-robin across %v paths, + scheduler arms", sizes))
	res, err := experiment.RunProbing(experiment.ProbingConfig{
		Paths:    sizes,
		Seed:     cfg.Seed,
		SchedCfg: cfg,
	})
	if err != nil {
		return err
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderProbingFigure(w, res, csv) }, csv)
}

// splitList parses a comma-separated flag value, returning nil when empty
// so the grid default applies.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func matrixFig(csv bool) error {
	m := experiment.DefaultMatrix()
	if arms := splitList(matrixArms); len(arms) > 0 {
		m.Arms = arms
	}
	if works := splitList(matrixWorkloads); len(works) > 0 {
		m.Workloads = works
	}
	if bands := splitList(matrixBands); len(bands) > 0 {
		byName := map[string]experiment.Band{}
		for _, b := range m.Bands {
			byName[b.Name] = b
		}
		var sel []experiment.Band
		for _, name := range bands {
			b, ok := byName[name]
			if !ok {
				return fmt.Errorf("-bands: unknown band %q (known: lan, wan, lossy, congested)", name)
			}
			sel = append(sel, b)
		}
		m.Bands = sel
	}
	if seeds := splitList(matrixSeeds); len(seeds) > 0 {
		m.Seeds = m.Seeds[:0]
		for _, f := range seeds {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("-mseeds: invalid seed %q", f)
			}
			m.Seeds = append(m.Seeds, n)
		}
	}
	banner(fmt.Sprintf("Matrix: %d arms × %d workloads × %d bands × %d seeds (violated-window fraction, aggregate Mbps, delay jitter)",
		len(m.Arms), len(m.Workloads), len(m.Bands), len(m.Seeds)))
	res, err := experiment.RunMatrix(m)
	if err != nil {
		return err
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderMatrix(w, res, csv) }, csv)
}

func videoFig(cfg experiment.RunConfig, csv bool) error {
	banner("Multimedia: MPEG-4 FGS layered video playback quality (tech-report companion)")
	rows, err := experiment.RunVideo(cfg, experiment.AlgWFQ, experiment.AlgMSFQ, experiment.AlgPGOS)
	if err != nil {
		return err
	}
	return tee(func(w io.Writer, csv bool) error { return experiment.RenderVideo(w, rows, csv) }, csv)
}
