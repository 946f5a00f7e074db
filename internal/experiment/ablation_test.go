package experiment

import "testing"

func TestQuantileSweepRows(t *testing.T) {
	rows := QuantileSweep(7)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FailRate < 0 || r.FailRate > 0.2 {
			t.Fatalf("implausible failure rate at q=%.2f: %v", r.Quantile, r.FailRate)
		}
		if r.MeanErr <= 0 {
			t.Fatal("mean error must be positive")
		}
	}
}

func TestWindowSweepRows(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rows, err := WindowSweep(RunConfig{Seed: 7, DurationSec: 20, WarmupSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "window_sweep_seed7.golden",
		renderCSV(t, RenderWindowSweep(rows)))
	if len(rows) != 10 { // 5 windows × 2 streams
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sustained <= 0 {
			t.Fatalf("tw=%v %s sustained %v", r.TwSec, r.Stream, r.Sustained)
		}
	}
}

func TestAdmissionAblationStructure(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("long runs")
	}
	rows, err := AdmissionAblation(RunConfig{Seed: 7, DurationSec: 400, WarmupSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "admission_seed7.golden",
		renderCSV(t, RenderAdmission(rows)))
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Mean admission is probability-blind: its decision at 56@0.95 and at
	// 60@0.99 depends only on the rate; percentile admission keys off the
	// distribution tail and must be at least as conservative.
	admitted := func(mode string) int {
		n := 0
		for _, r := range rows {
			if r.Mode == mode && r.Admitted {
				n++
			}
		}
		return n
	}
	if admitted("percentile") > admitted("mean") {
		t.Fatalf("percentile admission should be the conservative one: %d vs %d",
			admitted("percentile"), admitted("mean"))
	}
	for _, r := range rows {
		if r.Mode == "percentile" && !r.Honest() {
			t.Fatalf("percentile admission broke its promise: %+v", r)
		}
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
