package experiment

import (
	"fmt"
	"testing"

	"iqpaths/internal/bwest"
)

func bwestActive() bwest.Planner { return bwest.NewInfoGainPlanner() }

// goldenProbingConfig is the reduced probing-figure configuration the
// goldens pin: the two smaller overlay sizes and the golden scheduler
// run (20 s measured, 30 s warmup).
func goldenProbingConfig(seed int64) ProbingConfig {
	return ProbingConfig{
		Paths:    []int{100, 1000},
		Seed:     seed,
		SchedCfg: goldenRunConfig(seed),
	}
}

// TestGoldenProbing pins the probing figure byte-identically under seeds
// {1, 7, 42} and enforces the figure's two differential claims:
//
//  1. At ≥1000 paths the active (information-gain) planner reaches the
//     target per-path CDF accuracy on ≥30 % less probe traffic than
//     round-robin at the same per-round budget.
//  2. Backpressure (max-weight) matches or beats PGOS on aggregate
//     throughput while PGOS keeps a strictly lower violated-window
//     fraction on the guaranteed streams — throughput optimality is not
//     predictability.
func TestGoldenProbing(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := goldenProbingConfig(seed)
			res, err := RunProbing(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("probing_seed%d.golden", seed),
				"== probing\n"+renderCSV(t, RenderProbingFigure(res)...))

			cfg.fillDefaults()
			byKey := map[string]ProbingPoint{}
			for _, p := range res.Sweep {
				byKey[fmt.Sprintf("%s/%d", p.Planner, p.Paths)] = p
				if p.FinalMeanKS > cfg.TargetKS {
					t.Errorf("%s at %d paths never reached target KS %.2f (final %.4f)",
						p.Planner, p.Paths, cfg.TargetKS, p.FinalMeanKS)
				}
			}
			for _, paths := range cfg.Paths {
				if paths < 1000 {
					continue
				}
				active := byKey[fmt.Sprintf("active/%d", paths)]
				rr := byKey[fmt.Sprintf("rr/%d", paths)]
				if active.ProbeKBToTarget > 0.7*rr.ProbeKBToTarget {
					t.Errorf("at %d paths active spent %.1f KB vs rr %.1f KB — saving %.1f%%, want ≥30%%",
						paths, active.ProbeKBToTarget, rr.ProbeKBToTarget, active.SavingsPct)
				}
				t.Logf("paths=%d active=%.1fKB (rounds %d) rr=%.1fKB (rounds %d) savings=%.1f%%",
					paths, active.ProbeKBToTarget, active.RoundsToTarget,
					rr.ProbeKBToTarget, rr.RoundsToTarget, active.SavingsPct)
			}

			arms := map[string]ProbingArm{}
			for _, a := range res.Arms {
				arms[a.Algorithm] = a
			}
			// Aggregate is compared at figure precision (0.1 Mbps): the
			// workload is arrival-limited, so work-conserving schedulers tie
			// on aggregate to within scheduling noise, and "Backpressure ≥
			// PGOS" means "max-weight loses nothing measurable" — while the
			// violated-window column separates them decisively.
			pgos, bp := arms[AlgPGOS], arms[AlgBackpressure]
			if bp.AggMbps < pgos.AggMbps-0.05 {
				t.Errorf("Backpressure aggregate %.3f Mbps < PGOS %.3f Mbps — max-weight should not lose aggregate",
					bp.AggMbps, pgos.AggMbps)
			}
			if pgos.GuarViolatedFrac >= bp.GuarViolatedFrac {
				t.Errorf("PGOS violated-window fraction %.4f not strictly below Backpressure's %.4f",
					pgos.GuarViolatedFrac, bp.GuarViolatedFrac)
			}
			t.Logf("arms: PGOS agg=%.3f viol=%.4f | Backpressure agg=%.3f viol=%.4f",
				pgos.AggMbps, pgos.GuarViolatedFrac, bp.AggMbps, bp.GuarViolatedFrac)
		})
	}
}

// TestProbingSweepDeterminism re-runs one cell and demands identical
// output — the property that makes the goldens meaningful.
func TestProbingSweepDeterminism(t *testing.T) {
	cfg := ProbingConfig{Paths: []int{100}, Seed: 7, Rounds: 60}
	cfg.fillDefaults()
	a := runProbingPlanner(&cfg, 100, bwestActive())
	b := runProbingPlanner(&cfg, 100, bwestActive())
	if a != b {
		t.Fatalf("probing cell not deterministic:\n%+v\n%+v", a, b)
	}
}
