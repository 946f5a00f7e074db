package experiment

import "testing"

func TestRunVideoUnknownAlg(t *testing.T) {
	if _, err := runVideo(RunConfig{Seed: 1, DurationSec: 1, WarmupSec: 1}, "nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestVideoShape is the multimedia claim: PGOS's layer-aware scheduling
// plays more base frames than proportional sharing when the network dips
// below total demand, and holds its 99 % base-layer guarantee.
func TestVideoShape(t *testing.T) {
	rows := tableRows(shapeRun(t, "video_seed42.golden")[0])
	msfq, pgos := rowOf(t, rows, "algorithm", AlgMSFQ), rowOf(t, rows, "algorithm", AlgPGOS)
	t.Logf("MSFQ: %v", msfq)
	t.Logf("PGOS: %v", pgos)
	if num(t, pgos["frames"]) == 0 || num(t, msfq["frames"]) == 0 {
		t.Fatal("no frames scored")
	}
	if pg, ms := num(t, pgos["base_miss_rate"]), num(t, msfq["base_miss_rate"]); pg > ms {
		t.Errorf("PGOS base miss %.4f should not exceed MSFQ %.4f", pg, ms)
	}
	if pg := num(t, pgos["base_miss_rate"]); pg > 0.01 {
		t.Errorf("PGOS base layer (99%% guarantee) missed %.4f of frames", pg)
	}
	if q := num(t, pgos["mean_quality"]); q < 2 {
		t.Errorf("PGOS mean quality %.2f too low", q)
	}
}
