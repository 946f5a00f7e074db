package experiment

import "testing"

func TestQuantileSweepRows(t *testing.T) {
	t.Parallel()
	rows := tableRows(runCase(t, "quantiles_seed7.golden")[0])
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if fail := num(t, r["pctl_fail_rate"]); fail < 0 || fail > 0.2 {
			t.Fatalf("implausible failure rate at q=%s: %v", r["quantile"], fail)
		}
		if num(t, r["mean_pred_err"]) <= 0 {
			t.Fatal("mean error must be positive")
		}
	}
}

func TestWindowSweepRows(t *testing.T) {
	rows := tableRows(shapeRun(t, "window_sweep_seed7.golden")[0])
	if len(rows) != 10 { // 5 windows × 2 streams
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if num(t, r["sustained_95pct"]) <= 0 {
			t.Fatalf("tw=%s %s sustained %s", r["tw_s"], r["stream"], r["sustained_95pct"])
		}
	}
}

// TestAdmissionAblationStructure: mean admission is probability-blind —
// its decision at 56@0.95 and at 60@0.99 depends only on the rate;
// percentile admission keys off the distribution tail, must be at least
// as conservative, and must keep every promise it makes.
func TestAdmissionAblationStructure(t *testing.T) {
	rows := tableRows(shapeRun(t, "admission_seed7.golden")[0])
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	admitted := map[string]int{}
	for _, r := range rows {
		if r["admitted"] == "true" {
			admitted[r["mode"]]++
		}
		if r["mode"] == "percentile" && r["honest"] != "true" {
			t.Fatalf("percentile admission broke its promise: %v", r)
		}
	}
	if admitted["percentile"] > admitted["mean"] {
		t.Fatalf("percentile admission should be the conservative one: %d vs %d",
			admitted["percentile"], admitted["mean"])
	}
}

// Failure injection: with 1% random loss on every link, PGOS throughput
// accounting sees proportionally less, but the system neither wedges nor
// collapses — criticals stay within the loss budget of their targets.
func TestLossInjection(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runLossy(RunConfig{Seed: 42, DurationSec: 60, WarmupSec: 60}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		s := res.Streams[i]
		// 1 % loss on each of the path's 3 links ≈ 3 % end-to-end, plus
		// sampling quantization.
		floor := s.RequiredMbps * 0.96
		if s.Summary.Mean < floor {
			t.Errorf("%s mean %.3f under 1%% loss, want ≥ %.3f", s.Name, s.Summary.Mean, floor)
		}
	}
}
