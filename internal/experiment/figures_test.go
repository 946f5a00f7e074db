package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestFig4ShapeAndSeries: percentile prediction fails less often than
// the mean predictors err, within the paper's band, at every window from
// 0.1 s to 1.0 s.
func TestFig4ShapeAndSeries(t *testing.T) {
	t.Parallel()
	rows := tableRows(runCase(t, "fig4_seed42.golden")[0])
	if len(rows) != 10 {
		t.Fatalf("points = %d, want 10", len(rows))
	}
	for _, r := range rows {
		meanErr, pctlFail := num(t, r["mean_pred_err"]), num(t, r["pctl_fail_rate"])
		if meanErr <= 0 {
			t.Fatalf("window %s: zero mean error", r["window_s"])
		}
		if pctlFail >= meanErr {
			t.Errorf("window %s: percentile (%.4f) should beat mean (%.4f)", r["window_s"], pctlFail, meanErr)
		}
		if pctlFail > 0.06 {
			t.Errorf("window %s: percentile failure %.4f above the paper's band", r["window_s"], pctlFail)
		}
	}
	if rows[0]["window_s"] != "0.1" || rows[9]["window_s"] != "1.0" {
		t.Fatalf("x-axis wrong: %v .. %v", rows[0]["window_s"], rows[9]["window_s"])
	}
}

func TestRenderFig4(t *testing.T) {
	points := Fig4(Fig4Config{Seed: 1, Samples: 8000})
	var txt, csv bytes.Buffer
	if err := fig4Table(points).Write(&txt, false); err != nil {
		t.Fatal(err)
	}
	if err := fig4Table(points).Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "pctl_fail_rate") {
		t.Fatal("text table missing header")
	}
	if got := strings.Count(csv.String(), "\n"); got != 11 {
		t.Fatalf("csv lines = %d, want 11", got)
	}
}

// TestSuiteRenderers checks the SmartPointer figure's tables: a titled
// series per arm, then the Fig. 11 summary and the CDFs.
func TestSuiteRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	t.Parallel()
	tables := runCase(t, "fig9_seed7.golden")
	if len(tables) != 6 { // 4 series + summary + cdfs
		t.Fatalf("tables = %d, want 6", len(tables))
	}
	series, summary, cdfs := tables[2], tables[4], tables[5]
	if len(summary.Rows) != 8 { // 4 algorithms × 2 streams
		t.Fatalf("fig11 rows = %d, want 8", len(summary.Rows))
	}
	if len(cdfs.Rows) != 12 || cdfs.Header[6] != "p50" { // 4 algorithms × 3 streams
		t.Fatalf("cdf rows = %d, header %v", len(cdfs.Rows), cdfs.Header)
	}
	var buf bytes.Buffer
	if err := series.Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.HasPrefix(out, "== series smartpointer PGOS\nt_s") || !strings.Contains(out, "Atom") {
		t.Fatalf("series render missing title or columns:\n%.200s", out)
	}
}

func TestGridFTPShape(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	results, err := RunArms(RunConfig{Seed: 42, DurationSec: 150, WarmupSec: 60}, RunGridFTP, AlgBlocked, AlgPGOS)
	if err != nil {
		t.Fatal(err)
	}
	blocked, iqpg := results[0], results[1]
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
	buf.Reset()
	if err := (Table{Title: "t", Gap: true, Rows: [][]string{{"free line"}}}).Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "\n== t\nfree line\n" {
		t.Fatalf("headerless titled table = %q", got)
	}
}
