package experiment

import (
	"fmt"
	"testing"
)

func TestPathsSweepShape(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := PathsSweep(RunConfig{Seed: 42, DurationSec: 60, WarmupSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "paths_seed42.golden",
		renderCSV(t, RenderPathsSweep(rows)))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AdmittedFrac > 0.1 {
		t.Errorf("70 Mbps @95%% should essentially never be admitted on one path: %.3f", rows[0].AdmittedFrac)
	}
	if rows[3].AdmittedFrac <= rows[0].AdmittedFrac {
		t.Errorf("admission should improve with more paths: %.3f vs %.3f",
			rows[3].AdmittedFrac, rows[0].AdmittedFrac)
	}
	// More paths → sustained level does not degrade.
	if rows[3].Sustained < rows[1].Sustained-1 {
		t.Errorf("4 paths (%.2f) should sustain at least 2 paths' level (%.2f)",
			rows[3].Sustained, rows[1].Sustained)
	}
	for _, r := range rows {
		t.Logf("paths=%d admittedFrac=%.3f mean=%.2f sustained=%.2f σ=%.3f",
			r.NumPaths, r.AdmittedFrac, r.Mean, r.Sustained, r.StdDev)
	}
}

func TestViolationBoundHolds(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	// 30 Mbps with a generous 100-packet/window bound: admissible, and
	// the realized shortfall must respect the bound on average.
	res, err := RunViolationBound(RunConfig{Seed: 42, DurationSec: 120, WarmupSec: 60}, 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("violation-bound run: %+v", res)
	checkGolden(t, "violation_bound_seed42.golden", renderViolationBound(res))
	if !res.Admitted {
		t.Fatal("30 Mbps with a loose bound should be admitted")
	}
	if res.MeanViolations > res.MaxViolations {
		t.Errorf("measured mean violations %.1f exceed the promised bound %.1f",
			res.MeanViolations, res.MaxViolations)
	}
}

func TestViolationBoundRejectsImpossible(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := RunViolationBound(RunConfig{Seed: 42, DurationSec: 30, WarmupSec: 60}, 150, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Error("150 Mbps with a tight bound must be rejected")
	}
	checkGolden(t, "violation_bound_reject_seed42.golden", renderViolationBound(res))
}

// renderViolationBound renders a violation-bound run for its golden: the
// run's own per-window checker, the accountant's per-stream record, and
// the traced remaps with the stream-0 committed bit each carried.
func renderViolationBound(res ViolationBoundResult) string {
	s := "required_mbps,max_violations,admitted,mean_violations,worst_violations\n"
	s += fmt.Sprintf("%v,%v,%t,%v,%v\n", res.RequiredMbps, res.MaxViolations,
		res.Admitted, res.MeanViolations, res.WorstViolations)
	s += "stream,windows,violated,mean_shortfall,delivered_mbps\n"
	for _, a := range res.Telemetry.Streams {
		s += fmt.Sprintf("%s,%d,%d,%v,%v\n", a.Name, a.Windows, a.ViolatedWindows, a.MeanShortfall, a.DeliveredMbps)
	}
	s += "remap_t_s,committed\n"
	for _, e := range res.Telemetry.Events {
		if e.Name == "remap" {
			s += fmt.Sprintf("%v,%v\n", e.T, e.Value)
		}
	}
	return s
}
