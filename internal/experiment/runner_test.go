package experiment

import (
	"testing"
)

func shortCfg(alg string) RunConfig {
	return RunConfig{Algorithm: alg, Seed: 42, DurationSec: 60, WarmupSec: 60}
}

func TestRunSmartPointerUnknownAlgorithm(t *testing.T) {
	if _, err := Run(shortCfg("nope"), SmartPointer); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestFillDefaultsWarmup(t *testing.T) {
	cfg := RunConfig{}
	cfg.fillDefaults()
	if cfg.WarmupSec != 60 {
		t.Errorf("zero WarmupSec should default to 60, got %v", cfg.WarmupSec)
	}
	cfg = RunConfig{WarmupSec: -5}
	cfg.fillDefaults()
	if cfg.WarmupSec != 60 {
		t.Errorf("negative WarmupSec should default to 60, got %v", cfg.WarmupSec)
	}
	cfg = RunConfig{WarmupSec: 7}
	cfg.fillDefaults()
	if cfg.WarmupSec != 7 {
		t.Errorf("explicit WarmupSec overridden to %v", cfg.WarmupSec)
	}
}

func TestRunSmartPointerAllAlgorithms(t *testing.T) {
	skipIfRace(t)
	t.Parallel()
	for _, alg := range []string{AlgWFQ, AlgMSFQ, AlgPGOS, AlgOptSched} {
		res, err := Run(shortCfg(alg), SmartPointer)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Streams) != 3 {
			t.Fatalf("%s: streams = %d", alg, len(res.Streams))
		}
		for _, s := range res.Streams {
			if len(s.Total) != 60 {
				t.Fatalf("%s/%s: %d samples, want 60", alg, s.Name, len(s.Total))
			}
			if s.Summary.Mean <= 0 {
				t.Fatalf("%s/%s: zero throughput", alg, s.Name)
			}
		}
		t.Logf("%s: Atom mean=%.2f p05=%.2f | Bond1 mean=%.2f p05=%.2f sd=%.2f | Bond2 mean=%.2f",
			alg, res.Streams[0].Summary.Mean, res.Streams[0].Summary.P05,
			res.Streams[1].Summary.Mean, res.Streams[1].Summary.P05, res.Streams[1].Summary.StdDev,
			res.Streams[2].Summary.Mean)
	}
}

// The §6.1 headline: PGOS holds the critical streams at ~target for ≥95 %
// of the time while MSFQ does not; Bond2's mean is not sacrificed.
func TestSmartPointerShape(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	cfg := RunConfig{Seed: 42, DurationSec: 150, WarmupSec: 60}
	cfg.Algorithm = AlgPGOS
	pg, err := Run(cfg, SmartPointer)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm = AlgMSFQ
	ms, err := Run(cfg, SmartPointer)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"Atom", "Bond1"} {
		req := pg.Streams[i].RequiredMbps
		// The paper scores against 99.5 % of target; our 1 s sampling
		// quantizes at a few packets per boundary (~1 % of the smaller
		// stream), so score at 98.5 %.
		pgFrac := pg.Streams[i].Summary.FractionAtLeast(req * 0.985)
		msFrac := ms.Streams[i].Summary.FractionAtLeast(req * 0.985)
		t.Logf("%s: PGOS %.3f vs MSFQ %.3f at 98.5%% of target (req %.2f)", name, pgFrac, msFrac, req)
		if pgFrac < 0.93 {
			t.Errorf("%s under PGOS met target only %.3f of the time (want ≥0.93)", name, pgFrac)
		}
		if pgFrac <= msFrac {
			t.Errorf("%s: PGOS (%.3f) should beat MSFQ (%.3f)", name, pgFrac, msFrac)
		}
		if pg.Streams[i].Summary.StdDev >= ms.Streams[i].Summary.StdDev {
			t.Errorf("%s: PGOS stddev %.3f should undercut MSFQ %.3f",
				name, pg.Streams[i].Summary.StdDev, ms.Streams[i].Summary.StdDev)
		}
	}
	// Bond2's average must not be sacrificed (>80 % of MSFQ's).
	if pg.Streams[2].Summary.Mean < 0.8*ms.Streams[2].Summary.Mean {
		t.Errorf("Bond2 sacrificed: PGOS %.2f vs MSFQ %.2f",
			pg.Streams[2].Summary.Mean, ms.Streams[2].Summary.Mean)
	}
	// Frame jitter improves under PGOS (§6.1: 2.0 ms → 1.4 ms).
	if pj, mj := pg.Streams[0].JitterSec(), ms.Streams[0].JitterSec(); pj > mj {
		t.Errorf("Atom jitter: PGOS %.4f should not exceed MSFQ %.4f", pj, mj)
	}
}
