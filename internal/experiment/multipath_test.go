package experiment

import "testing"

// runViolationBound runs the violation-bound scenario under PGOS.
func runViolationBound(cfg RunConfig, requiredMbps, maxViolations float64) (Result, error) {
	cfg.Algorithm = AlgPGOS
	return Run(cfg, violationBound(requiredMbps, maxViolations))
}

func TestPathsSweepShape(t *testing.T) {
	rows := tableRows(shapeRun(t, "paths_seed42.golden")[0])
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%v", r)
	}
	one, four := num(t, rows[0]["admitted_frac"]), num(t, rows[3]["admitted_frac"])
	if one > 0.1 {
		t.Errorf("70 Mbps @95%% should essentially never be admitted on one path: %.3f", one)
	}
	if four <= one {
		t.Errorf("admission should improve with more paths: %.3f vs %.3f", four, one)
	}
	// More paths → sustained level does not degrade.
	if s4, s2 := num(t, rows[3]["sustained_95pct"]), num(t, rows[1]["sustained_95pct"]); s4 < s2-1 {
		t.Errorf("4 paths (%.2f) should sustain at least 2 paths' level (%.2f)", s4, s2)
	}
}

// TestViolationBoundHolds: 30 Mbps with a generous 100-packet/window
// bound is admissible, and the realized shortfall must respect the bound
// on average.
func TestViolationBoundHolds(t *testing.T) {
	ask := tableRows(shapeRun(t, "violation_bound_seed42.golden")[0])[0]
	t.Logf("violation-bound run: %v", ask)
	if ask["admitted"] != "true" {
		t.Fatal("30 Mbps with a loose bound should be admitted")
	}
	if mean, bound := num(t, ask["mean_violations"]), num(t, ask["max_violations"]); mean > bound {
		t.Errorf("measured mean violations %.1f exceed the promised bound %.1f", mean, bound)
	}
}

func TestViolationBoundRejectsImpossible(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := runViolationBound(RunConfig{Seed: 42, DurationSec: 30, WarmupSec: 60}, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if admitted, _, _ := violationBoundCheck(res); admitted {
		t.Error("150 Mbps with a tight bound must be rejected")
	}
	checkGolden(t, "violation_bound_reject_seed42.golden", renderCSV(t, violationBoundTables(res)...))
}
