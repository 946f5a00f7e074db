package experiment

import (
	"fmt"
	"testing"

	"iqpaths/internal/bwest"
)

func bwestActive() bwest.Planner { return bwest.NewInfoGainPlanner() }

// TestProbingFigureClaims enforces the probing figure's two differential
// claims under each golden seed:
//
//  1. At ≥1000 paths the active (information-gain) planner reaches the
//     target per-path CDF accuracy on ≥30 % less probe traffic than
//     round-robin at the same per-round budget.
//  2. Backpressure (max-weight) matches or beats PGOS on aggregate
//     throughput while PGOS keeps a strictly lower violated-window
//     fraction on the guaranteed streams — throughput optimality is not
//     predictability.
func TestProbingFigureClaims(t *testing.T) {
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkProbingClaims(t, shapeRun(t, fmt.Sprintf("probing_seed%d.golden", seed)))
		})
	}
}

func checkProbingClaims(t *testing.T, tables []Table) {
	var cfg ProbingConfig
	cfg.fillDefaults()
	sweep := tableRows(tables[0])
	for _, r := range sweep {
		if ks := num(t, r["final_mean_ks"]); ks > probingTargetKS {
			t.Errorf("%s at %s paths never reached target KS %.2f (final %.4f)", r["planner"], r["paths"], probingTargetKS, ks)
		}
		if r["planner"] != "rr" || num(t, r["paths"]) < 1000 {
			continue
		}
		active := rowOf(t, sweep, "planner", "active", "paths", r["paths"])
		if a, rr := num(t, active["probe_KB_to_target"]), num(t, r["probe_KB_to_target"]); a > 0.7*rr {
			t.Errorf("at %s paths active spent %.1f KB vs rr %.1f KB — saving %s%%, want ≥30%%",
				r["paths"], a, rr, active["savings_pct"])
		}
		t.Logf("paths=%s active=%v rr=%v", r["paths"], active, r)
	}

	// Aggregate is compared at figure precision (0.1 Mbps): the workload
	// is arrival-limited, so work-conserving schedulers tie on aggregate to
	// within scheduling noise, and "Backpressure ≥ PGOS" means "max-weight
	// loses nothing measurable" — while the violated-window column
	// separates them decisively.
	arms := tableRows(tables[1])
	pgos, bp := rowOf(t, arms, "algorithm", AlgPGOS), rowOf(t, arms, "algorithm", AlgBackpressure)
	if num(t, bp["agg_mbps"]) < num(t, pgos["agg_mbps"])-0.05 {
		t.Errorf("Backpressure aggregate %s Mbps < PGOS %s Mbps — max-weight should not lose aggregate",
			bp["agg_mbps"], pgos["agg_mbps"])
	}
	if num(t, pgos["guar_violated_frac"]) >= num(t, bp["guar_violated_frac"]) {
		t.Errorf("PGOS violated-window fraction %s not strictly below Backpressure's %s",
			pgos["guar_violated_frac"], bp["guar_violated_frac"])
	}
	t.Logf("arms: PGOS %v | Backpressure %v", pgos, bp)
}

// TestProbingSweepDeterminism re-runs one cell and demands identical
// output — the property that makes the goldens meaningful.
func TestProbingSweepDeterminism(t *testing.T) {
	cfg := ProbingConfig{Paths: []int{100}, Seed: 7}
	cfg.fillDefaults()
	a := runProbingPlanner(&cfg, 100, bwestActive())
	b := runProbingPlanner(&cfg, 100, bwestActive())
	if a != b {
		t.Fatalf("probing cell not deterministic:\n%+v\n%+v", a, b)
	}
}
