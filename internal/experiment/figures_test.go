package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig4ShapeAndSeries(t *testing.T) {
	points := Fig4(Fig4Config{Seed: 42, Samples: 30000})
	if len(points) != 10 {
		t.Fatalf("points = %d, want 10", len(points))
	}
	for _, p := range points {
		if p.MeanErr <= 0 {
			t.Fatalf("window %.1f: zero mean error", p.WindowSec)
		}
		if p.PctlFail >= p.MeanErr {
			t.Errorf("window %.1f: percentile (%.4f) should beat mean (%.4f)",
				p.WindowSec, p.PctlFail, p.MeanErr)
		}
		if p.PctlFail > 0.06 {
			t.Errorf("window %.1f: percentile failure %.4f above the paper's band",
				p.WindowSec, p.PctlFail)
		}
		if len(p.MeanErrBy) != 4 {
			t.Fatalf("per-predictor breakdown missing: %v", p.MeanErrBy)
		}
	}
	if points[0].WindowSec != 0.1 || points[9].WindowSec != 1.0 {
		t.Fatalf("x-axis wrong: %v .. %v", points[0].WindowSec, points[9].WindowSec)
	}
}

func TestRenderFig4(t *testing.T) {
	points := Fig4(Fig4Config{Seed: 1, Samples: 8000})
	var txt, csv bytes.Buffer
	if err := RenderFig4(points).Write(&txt, false); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig4(points).Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "pctl_fail_rate") {
		t.Fatal("text table missing header")
	}
	if got := strings.Count(csv.String(), "\n"); got != 11 {
		t.Fatalf("csv lines = %d, want 11", got)
	}
}

func TestGridFTPShape(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	suite, err := RunGridFTPSuite(RunConfig{Seed: 42, DurationSec: 150, WarmupSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	blocked := suite.Results[AlgBlocked]
	iqpg := suite.Results[AlgPGOS]
	// §6.2: DT1 ~33.94 Mbps (σ 1.43) under GridFTP vs ~34.55 (σ 0.40)
	// under IQPG-GridFTP. The shape: IQPG holds DT1/DT2 at target with a
	// much smaller deviation, without starving DT3.
	for i, name := range []string{"DT1", "DT2"} {
		b, q := blocked.Streams[i].Summary, iqpg.Streams[i].Summary
		t.Logf("%s: blocked mean=%.2f sd=%.3f | iqpg mean=%.2f sd=%.3f", name, b.Mean, b.StdDev, q.Mean, q.StdDev)
		if q.StdDev >= b.StdDev {
			t.Errorf("%s: IQPG stddev %.3f should undercut blocked %.3f", name, q.StdDev, b.StdDev)
		}
		req := iqpg.Streams[i].RequiredMbps
		if frac := q.FractionAtLeast(req * 0.99); frac < 0.9 {
			t.Errorf("%s: IQPG met target only %.3f of the time", name, frac)
		}
	}
	// DT3 still moves under IQPG (scheduled into leftover bandwidth).
	if m := iqpg.Streams[2].Summary.Mean; m < 5 {
		t.Errorf("DT3 starved under IQPG: %.2f Mbps", m)
	}
	t.Logf("DT3: blocked=%.2f iqpg=%.2f", blocked.Streams[2].Summary.Mean, iqpg.Streams[2].Summary.Mean)
}

func TestSuiteRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	suite, err := RunSmartPointerSuite(RunConfig{Seed: 7, DurationSec: 20, WarmupSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	rows := suite.Fig11("Atom", "Bond1")
	if len(rows) != 8 { // 4 algorithms × 2 streams
		t.Fatalf("fig11 rows = %d, want 8", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderFig11(rows).Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PGOS") {
		t.Fatal("fig11 table missing PGOS")
	}
	cdfs := suite.CDFs()
	if len(cdfs) != 12 { // 4 algorithms × 3 streams
		t.Fatalf("cdf rows = %d", len(cdfs))
	}
	buf.Reset()
	if err := RenderCDFs(cdfs).Write(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p50") {
		t.Fatal("cdf header missing")
	}
	buf.Reset()
	if err := RenderSeries(suite.Results[AlgPGOS]).Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Atom") || !strings.Contains(out, "t_s") {
		t.Fatal("series render missing columns")
	}
}

func TestWriteTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := Table{Header: []string{"a", "bb"}, Rows: [][]string{{"xxx", "y"}}}.Write(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
}
