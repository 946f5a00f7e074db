package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// updateGolden regenerates the committed figure goldens:
//
//	go test ./internal/experiment -run TestGoldenFigures -update
//
// Every registered figure is pinned byte for byte, as the CSV iqbench
// prints for it, at one reduced configuration: the Fig. 9 / Fig. 12
// suites (per-algorithm throughput series plus the Fig. 11/13 summary and
// CDF rows), cluster, probing and matrix under seeds {1, 7, 42}, the rest
// under one seed. So any refactor of the stats → monitor → pgos → simnet
// substrate that perturbs a single float anywhere in the pipeline fails
// tier-1 loudly instead of silently shifting figures.
var updateGolden = flag.Bool("update", false, "rewrite golden figure files")

// goldenSeeds are the seeds the determinism goldens pin.
var goldenSeeds = []int64{1, 7, 42}

// goldenRunConfig is the reduced-duration configuration the goldens use:
// long enough for monitors to warm (100 samples at 0.1 s) and several
// scheduling windows to run, short enough for tier-1.
func goldenRunConfig(seed int64) RunConfig {
	return RunConfig{Seed: seed, DurationSec: 20, WarmupSec: 30}
}

// goldenCase pins one registered figure: run at params, it must render
// exactly the golden file.
type goldenCase struct {
	figure, golden string
	params         Params
}

// typedReplays are the goldens whose determinism tests check them from
// the first of two typed runs: TestRunFaultsDeterministic and
// TestRunChurnDeterministic. TestGoldenFigures leaves these to them, so
// each configuration runs twice, not three times.
var typedReplays = map[string]bool{"faults_seed42.golden": true, "churn_seed42.golden": true}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"fig4", "fig4_seed42.golden", Params{Run: RunConfig{Seed: 42}}},
		{"video", "video_seed42.golden", Params{Run: RunConfig{Seed: 42, DurationSec: 120, WarmupSec: 60}}},
		{"quantiles", "quantiles_seed7.golden", Params{Run: RunConfig{Seed: 7}}},
		{"window", "window_sweep_seed7.golden", Params{Run: RunConfig{Seed: 7, DurationSec: 20, WarmupSec: 30}}},
		{"predictor", "mean_predictor_seed1.golden", Params{Run: goldenRunConfig(1)}},
		{"admission", "admission_seed7.golden", Params{Run: RunConfig{Seed: 7, DurationSec: 400, WarmupSec: 30}}},
		{"paths", "paths_seed42.golden", Params{Run: RunConfig{Seed: 42, DurationSec: 60, WarmupSec: 60}}},
		{"dispersion", "probing_ablation_seed42.golden", Params{Run: RunConfig{Seed: 42, DurationSec: 120, WarmupSec: 60}}},
		{"violation-bound", "violation_bound_seed42.golden", Params{Run: RunConfig{Seed: 42, DurationSec: 120, WarmupSec: 60}}},
		{"faults", "faults_seed42.golden", Params{Run: faultCfg(30)}},
		{"churn", "churn_seed42.golden", Params{Run: faultCfg(30)}},
		{"multiseed", "multiseed_seeds42_7_100.golden", Params{Run: RunConfig{DurationSec: 40, WarmupSec: 55}, Seeds: []int64{42, 7, 100}}},
	}
	for _, seed := range goldenSeeds {
		m := DefaultMatrix()
		m.Seeds = []int64{seed}
		cluster := ClusterConfig{Nodes: []int{100, 400}, Events: 25, Rounds: 120, Drain: 20}
		cases = append(cases,
			goldenCase{"smartpointer", fmt.Sprintf("fig9_seed%d.golden", seed), Params{Run: goldenRunConfig(seed)}},
			goldenCase{"gridftp", fmt.Sprintf("fig12_seed%d.golden", seed), Params{Run: goldenRunConfig(seed)}},
			goldenCase{"cluster", fmt.Sprintf("cluster_seed%d.golden", seed), Params{Run: RunConfig{Seed: seed}, Cluster: cluster}},
			goldenCase{"probing", fmt.Sprintf("probing_seed%d.golden", seed),
				Params{Run: goldenRunConfig(seed), Probing: ProbingConfig{Paths: []int{100, 1000}}}},
			goldenCase{"matrix", fmt.Sprintf("matrix_seed%d.golden", seed), Params{Matrix: m}})
	}
	return cases
}

// caseRuns memoizes each golden case's run (keyed by its golden file), so
// TestGoldenFigures and the figure's shape test assert on one run of the
// configuration.
var caseRuns sync.Map

type caseRun struct {
	once   sync.Once
	tables []Table
	err    error
}

// runCase returns the tables of the case that pins the named golden file,
// running its figure through the registry on first use.
func runCase(t *testing.T, golden string) []Table {
	t.Helper()
	v, _ := caseRuns.LoadOrStore(golden, &caseRun{})
	r := v.(*caseRun)
	r.once.Do(func() { r.tables, r.err = runGoldenCase(golden) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.tables
}

// runGoldenCase runs the figure of the case that pins the named golden
// file through the registry.
func runGoldenCase(golden string) ([]Table, error) {
	for _, c := range goldenCases() {
		if c.golden == golden {
			figs, err := Lookup(c.figure)
			if err != nil {
				return nil, err
			}
			return figs[0].Run(c.params)
		}
	}
	return nil, fmt.Errorf("no golden case pins %s", golden)
}

// checkTypedReplay runs the configuration of the case that pins golden
// twice, requires the two typed results to be deeply equal — every float
// bit, every decision — and checks the first run's tables against the
// golden.
func checkTypedReplay[R any](t *testing.T, golden string, run func(RunConfig) (R, error), render func(R) []Table) {
	t.Helper()
	skipIfRace(t)
	t.Parallel()
	if !typedReplays[golden] {
		t.Fatalf("%s is not in typedReplays, so TestGoldenFigures checks it too", golden)
	}
	var cfg RunConfig
	for _, c := range goldenCases() {
		if c.golden == golden {
			cfg = c.params.Run
		}
	}
	a, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: the run is not deterministic under a fixed seed:\nfirst:  %+v\nsecond: %+v", golden, a, b)
	}
	checkGolden(t, golden, renderCSV(t, render(a)...))
}

// shapeRun is runCase for a shape test of a simulated figure: skipped
// under -race and -short, like the golden runs, and run in parallel with
// them.
func shapeRun(t *testing.T, golden string) []Table {
	t.Helper()
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	t.Parallel()
	return runCase(t, golden)
}

// TestGoldenFigures runs registered figures through the registry — the
// path iqbench prints from — and compares their CSV with the figure's
// golden. Every figure must have a case, and every golden file a case,
// except the two named below that pin no figure run. The tests after
// this one check some of the same goldens from the same memoized run.
func TestGoldenFigures(t *testing.T) {
	cases := goldenCases()
	claimed := map[string]bool{
		"matrix_render.golden":                 true, // TestRenderMatrixGoldenDeterminism: the renderer alone
		"violation_bound_reject_seed42.golden": true, // TestViolationBoundRejectsImpossible: a property test
	}
	covered := map[string]bool{}
	for _, c := range cases {
		claimed[c.golden] = true
		figs, err := Lookup(c.figure)
		if err != nil || len(figs) != 1 {
			t.Fatalf("case %s: figure %q resolves to %d figures (%v)", c.golden, c.figure, len(figs), err)
		}
		covered[figs[0].Names[0]] = true
	}
	for _, f := range Figures {
		if !covered[f.Names[0]] {
			t.Errorf("figure %q has no golden case", f.Names[0])
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !claimed[filepath.Base(f)] {
			t.Errorf("golden %s is claimed by no case", f)
		}
	}

	skipIfRace(t)
	if testing.Short() {
		t.Skip("figure runs")
	}
	for _, c := range cases {
		if typedReplays[c.golden] {
			continue
		}
		c := c
		t.Run(strings.TrimSuffix(c.golden, ".golden"), func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.golden, renderCSV(t, runCase(t, c.golden)...))
		})
	}
}

// The Fig. 9–11 and Fig. 12/13 suites (per-algorithm throughput series
// plus the summary and CDF rows), cluster, probing and matrix are pinned
// under every golden seed, one subtest each; the predictor ablation under
// seed 1.
func TestGoldenFig9(t *testing.T)          { checkFigureGoldens(t, "smartpointer") }
func TestGoldenFig12(t *testing.T)         { checkFigureGoldens(t, "gridftp") }
func TestGoldenMeanPredictor(t *testing.T) { checkFigureGoldens(t, "predictor") }
func TestGoldenCluster(t *testing.T)       { checkFigureGoldens(t, "cluster") }
func TestGoldenProbing(t *testing.T)       { checkFigureGoldens(t, "probing") }
func TestGoldenMatrix(t *testing.T)        { checkFigureGoldens(t, "matrix") }

// checkFigureGoldens compares the registry run of each golden case of the
// named figure with its golden: a figure pinned once in t itself, one
// pinned per seed in subtest seed<N> (the golden name's last part).
func checkFigureGoldens(t *testing.T, figure string) {
	t.Helper()
	skipIfRace(t)
	if testing.Short() {
		t.Skip("figure runs")
	}
	t.Parallel()
	var cases []goldenCase
	for _, c := range goldenCases() {
		if c.figure == figure {
			cases = append(cases, c)
		}
	}
	if len(cases) == 1 {
		checkGolden(t, cases[0].golden, renderCSV(t, runCase(t, cases[0].golden)...))
		return
	}
	for _, c := range cases {
		c := c
		name := strings.TrimSuffix(c.golden, ".golden")
		t.Run(name[strings.LastIndex(name, "_")+1:], func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.golden, renderCSV(t, runCase(t, c.golden)...))
		})
	}
}

// renderCSV renders figure tables as CSV, the form every golden pins.
func renderCSV(t *testing.T, tables ...Table) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range tables {
		if err := tbl.Write(&b, true); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	return b.String()
}

// tableRows returns a table's rows as column → cell maps.
func tableRows(tbl Table) []map[string]string {
	rows := make([]map[string]string, len(tbl.Rows))
	for i, r := range tbl.Rows {
		rows[i] = map[string]string{}
		for j, h := range tbl.Header {
			rows[i][h] = r[j]
		}
	}
	return rows
}

// rowOf returns the first row whose key columns hold the given values, in
// pairs: rowOf(t, rows, "mode", "oracle", "stream", "Atom").
func rowOf(t *testing.T, rows []map[string]string, kv ...string) map[string]string {
	t.Helper()
	for _, r := range rows {
		match := true
		for i := 0; i < len(kv); i += 2 {
			match = match && r[kv[i]] == kv[i+1]
		}
		if match {
			return r
		}
	}
	t.Fatalf("no row with %v", kv)
	return nil
}

// num parses a numeric cell.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to generate): %v", path, err)
	}
	if string(want) == got {
		return
	}
	// Report the first differing line so a drift is diagnosable without
	// dumping the whole series.
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s: output drifted at line %d:\n  golden: %q\n  got:    %q", name, i+1, w, g)
		}
	}
	t.Fatalf("%s: output drifted (length %d vs %d)", name, len(want), len(got))
}
