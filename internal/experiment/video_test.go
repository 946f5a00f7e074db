package experiment

import "testing"

func TestRunVideoUnknownAlg(t *testing.T) {
	if _, err := RunVideo(RunConfig{Seed: 1, DurationSec: 1, WarmupSec: 1}, "nope"); err == nil {
		t.Fatal("expected error")
	}
}

// The multimedia claim: PGOS's layer-aware scheduling plays more base
// frames and yields a steadier quality than proportional sharing when the
// network dips below total demand. The three-algorithm rows are pinned
// byte-for-byte by a golden.
func TestVideoShape(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	rows, err := RunVideo(RunConfig{Seed: 42, DurationSec: 120, WarmupSec: 60}, AlgWFQ, AlgMSFQ, AlgPGOS)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "video_seed42.golden",
		renderCSV(t, RenderVideo(rows)))
	byAlg := map[string]VideoRow{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	msfq, pgos := byAlg[AlgMSFQ], byAlg[AlgPGOS]
	t.Logf("MSFQ: %+v", msfq)
	t.Logf("PGOS: %+v", pgos)
	if pgos.FramesScored == 0 || msfq.FramesScored == 0 {
		t.Fatal("no frames scored")
	}
	if pgos.BaseMissRate > msfq.BaseMissRate {
		t.Errorf("PGOS base miss %.4f should not exceed MSFQ %.4f", pgos.BaseMissRate, msfq.BaseMissRate)
	}
	if pgos.BaseMissRate > 0.01 {
		t.Errorf("PGOS base layer (99%% guarantee) missed %.4f of frames", pgos.BaseMissRate)
	}
	if pgos.MeanQuality < 2 {
		t.Errorf("PGOS mean quality %.2f too low", pgos.MeanQuality)
	}
}
