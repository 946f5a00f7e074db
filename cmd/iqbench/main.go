// Command iqbench regenerates the paper's tables and figures on the
// emulated testbed and prints the same rows/series the paper reports.
// Every figure is a row of experiment.Figures; -fig names one figure or a
// group of them:
//
//	iqbench -fig 4            # bandwidth prediction (Fig. 4)
//	iqbench -fig 9            # SmartPointer series, summary and CDFs (Figs. 9–11; also -fig 10, 11)
//	iqbench -fig 12           # GridFTP vs IQPG series, summary and CDFs (Figs. 12–13; also -fig 13)
//	iqbench -fig video        # MPEG-4 FGS layered video playback quality
//	iqbench -fig faults       # WFQ/MSFQ/PGOS under a scripted fault scenario
//	iqbench -fig churn        # static routing vs control-plane rerouting under churn
//	iqbench -fig cluster      # cluster-scale gossip dissemination sweep (-nodes)
//	iqbench -fig probing      # Bayesian active probing vs round-robin (-paths) + Backpressure arm
//	iqbench -fig matrix       # scheduler arm × workload × scenario band grid (-arms, -workloads, -bands, -mseeds)
//	iqbench -fig multiseed    # Fig. 11 aggregated over -seeds seeds (mean ± standard error)
//	iqbench -fig all          # Figs. 4 and 9–13 plus video
//	iqbench -fig ablations    # DESIGN.md §5 ablation sweeps
//
// Flags -seed, -duration, -warmup control the run; -csv switches output
// from aligned tables to CSV, the form the figure goldens pin.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"iqpaths/internal/experiment"
	"iqpaths/internal/report"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure or group to regenerate: "+strings.Join(experiment.FigureNames(), ", "))
		seed     = flag.Int64("seed", 42, "experiment seed")
		duration = flag.Float64("duration", 150, "measured seconds per run")
		warmup   = flag.Float64("warmup", 60, "warm-up seconds before measurement")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir   = flag.String("out", "", "also write each figure as <figure name>.csv into this directory")
		seeds    = flag.Int("seeds", 0, "with -fig multiseed: number of seeds to aggregate over (default 5)")
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
	cfg := experiment.RunConfig{Seed: *seed, DurationSec: *duration, WarmupSec: *warmup}
	err := func() error {
		if *htmlPath != "" {
			return writeHTML(*htmlPath, cfg)
		}
		figs, err := experiment.Lookup(*fig)
		if err != nil {
			return err
		}
		p := experiment.Params{Run: cfg, Seeds: seedList(*seed, *seeds)}
		if p.Cluster.Nodes, err = sizeList("nodes", *nodes); err != nil {
			return err
		}
		if p.Probing.Paths, err = sizeList("paths", *paths); err != nil {
			return err
		}
		if p.Matrix, err = matrixConfig(*arms, *works, *bands, *mseeds); err != nil {
			return err
		}
		// The telemetry snapshot reuses the SmartPointer suite's PGOS
		// run when the figures ran it.
		var pgos *experiment.Result
		p.OnSuite = func(workload string, results []experiment.Result) {
			for i := range results {
				if workload == "smartpointer" && results[i].Algorithm == experiment.AlgPGOS {
					pgos = &results[i]
				}
			}
		}
		if err := run(figs, p, *csv, *outDir); err != nil {
			return err
		}
		if *telePath != "" {
			return dumpTelemetry(*telePath, cfg, pgos)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqbench:", err)
		os.Exit(1)
	}
}

// run runs each figure and prints its tables under its title; with outDir
// set it also writes the figure's CSV — the bytes its golden pins — to
// <outDir>/<figure name>.csv.
func run(figs []experiment.Figure, p experiment.Params, csv bool, outDir string) error {
	for _, f := range figs {
		tables, err := f.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Names[0], err)
		}
		fmt.Printf("\n== %s ==\n", f.Title)
		var file strings.Builder
		for _, t := range tables {
			if err := t.Write(os.Stdout, csv); err != nil {
				return err
			}
			if err := t.Write(&file, true); err != nil {
				return err
			}
		}
		if outDir == "" {
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, f.Names[0]+".csv"), []byte(file.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// seedList is the multi-seed figure's seeds: n consecutive seeds from
// first (5 when n ≤ 1).
func seedList(first int64, n int) []int64 {
	if n <= 1 {
		n = 5
	}
	list := make([]int64, n)
	for i := range list {
		list[i] = first + int64(i)
	}
	return list
}

// dumpTelemetry writes the PGOS SmartPointer run's end-of-run telemetry
// snapshot as JSON, running that configuration only when res is nil.
func dumpTelemetry(path string, cfg experiment.RunConfig, res *experiment.Result) error {
	if res == nil {
		cfg.Algorithm = experiment.AlgPGOS
		r, err := experiment.Run(cfg, experiment.SmartPointer)
		if err != nil {
			return err
		}
		res = &r
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

// writeHTML runs Fig. 4, the two §6 suites and the video figure and
// renders the HTML report; the suites' runs reach it through OnSuite.
func writeHTML(path string, cfg experiment.RunConfig) error {
	data := report.Data{
		Fig4:        experiment.Fig4(experiment.Fig4Config{Seed: cfg.Seed}),
		GeneratedBy: fmt.Sprintf("iqbench -html, seed %d, %gs measured after %gs warm-up", cfg.Seed, cfg.DurationSec, cfg.WarmupSec),
	}
	p := experiment.Params{Run: cfg, OnSuite: func(workload string, results []experiment.Result) {
		if workload == "smartpointer" {
			data.Smart = results
		} else {
			data.Grid = results
		}
	}}
	for _, name := range []string{"smartpointer", "gridftp", "video"} {
		figs, err := experiment.Lookup(name)
		if err != nil {
			return err
		}
		if data.Video, err = figs[0].Run(p); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report.Generate(f, data)
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

// splitList parses a comma-separated flag value, returning nil when empty
// so the default applies.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// sizeList parses a comma-separated list of positive sizes from the named
// flag.
func sizeList(flagName, s string) ([]int, error) {
	var sizes []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-%s: invalid overlay size %q", flagName, f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// matrixConfig builds the matrix figure's grid from the -arms,
// -workloads, -bands and -mseeds values; an empty list keeps the default.
func matrixConfig(arms, works, bands, seeds string) (experiment.Matrix, error) {
	m := experiment.DefaultMatrix()
	if a := splitList(arms); len(a) > 0 {
		m.Arms = a
	}
	if w := splitList(works); len(w) > 0 {
		m.Workloads = w
	}
	if names := splitList(bands); len(names) > 0 {
		var known []string
		for _, b := range m.Bands {
			known = append(known, b.Name)
		}
		var sel []experiment.Band
	next:
		for _, name := range names {
			for _, b := range m.Bands {
				if b.Name == name {
					sel = append(sel, b)
					continue next
				}
			}
			return m, fmt.Errorf("-bands: unknown band %q (known: %s)", name, strings.Join(known, ", "))
		}
		m.Bands = sel
	}
	if list := splitList(seeds); len(list) > 0 {
		m.Seeds = nil
		for _, f := range list {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return m, fmt.Errorf("-mseeds: invalid seed %q", f)
			}
			m.Seeds = append(m.Seeds, n)
		}
	}
	return m, nil
}
