package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the committed figure goldens:
//
//	go test ./internal/experiment -run TestGolden -update
//
// The goldens pin the byte-exact Fig. 9 / Fig. 12 outputs (per-algorithm
// throughput series plus the Fig. 11/13 summary and CDF rows) under seeds
// {1, 7, 42}, so any refactor of the stats → monitor → pgos → simnet
// substrate that perturbs a single float anywhere in the pipeline fails
// tier-1 loudly instead of silently shifting figures. Every other
// simulated figure (video, path sweep, violation bound, window sweep,
// admission and predictor ablations, faults, churn, matrix, cluster,
// probing) is pinned as CSV at one reduced configuration, mostly by the
// shape test that already runs it.
var updateGolden = flag.Bool("update", false, "rewrite golden figure files")

// goldenSeeds are the seeds the determinism goldens pin.
var goldenSeeds = []int64{1, 7, 42}

// goldenRunConfig is the reduced-duration configuration the goldens use:
// long enough for monitors to warm (100 samples at 0.1 s) and several
// scheduling windows to run, short enough for tier-1.
func goldenRunConfig(seed int64) RunConfig {
	return RunConfig{Seed: seed, DurationSec: 20, WarmupSec: 30}
}

// renderSuiteGolden renders a suite to the canonical golden text: the
// CSV time series per algorithm (the Fig. 9/12 rows), then the summary
// rows (Fig. 11 style) and throughput CDF rows.
func renderSuiteGolden(t *testing.T, s *Suite, fig11Streams []string) string {
	t.Helper()
	var b strings.Builder
	for _, alg := range s.Order {
		fmt.Fprintf(&b, "== series %s %s\n", s.Workload, alg)
		res := s.Results[alg]
		if err := RenderSeries(res).Write(&b, true); err != nil {
			t.Fatalf("render series %s: %v", alg, err)
		}
	}
	b.WriteString("== summary\n")
	if err := RenderFig11(s.Fig11(fig11Streams...)).Write(&b, true); err != nil {
		t.Fatalf("render summary: %v", err)
	}
	b.WriteString("== cdfs\n")
	if err := RenderCDFs(s.CDFs()).Write(&b, true); err != nil {
		t.Fatalf("render cdfs: %v", err)
	}
	return b.String()
}

// renderCSV renders figure tables as CSV, the form every golden pins, a
// blank line between tables.
func renderCSV(t *testing.T, tables ...Table) string {
	t.Helper()
	var b strings.Builder
	for i, tbl := range tables {
		if i > 0 {
			b.WriteString("\n")
		}
		if err := tbl.Write(&b, true); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	return b.String()
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

// TestGoldenFig9 pins the SmartPointer suite (Fig. 9/10/11 data) byte-
// identically across refactors under seeds {1, 7, 42}.
func TestGoldenFig9(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			suite, err := RunSmartPointerSuite(goldenRunConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			got := renderSuiteGolden(t, suite, []string{"Atom", "Bond1"})
			checkGolden(t, fmt.Sprintf("fig9_seed%d.golden", seed), got)
		})
	}
}

// TestGoldenFig12 pins the GridFTP suite (Fig. 12/13 data) the same way.
func TestGoldenFig12(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			suite, err := RunGridFTPSuite(goldenRunConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			got := renderSuiteGolden(t, suite, []string{"DT1", "DT2", "DT3"})
			checkGolden(t, fmt.Sprintf("fig12_seed%d.golden", seed), got)
		})
	}
}

// TestGoldenMeanPredictor pins the predictor ablation (IQPG-GridFTP with
// percentile vs mean predictions) at the reduced golden configuration.
func TestGoldenMeanPredictor(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := MeanPredictorAblation(goldenRunConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mean_predictor_seed1.golden",
		renderCSV(t, RenderFig11(rows)))
}
