package experiment

import (
	"fmt"
	"testing"
)

// TestProbingAblationShape: probing pays measurement overhead and error,
// but the guarantee must not collapse — ≥95 % of the oracle-mode
// sustained level for both critical streams.
func TestProbingAblationShape(t *testing.T) {
	rows := tableRows(shapeRun(t, "probing_ablation_seed42.golden")[0])
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, name := range []string{"Atom", "Bond1"} {
		o := rowOf(t, rows, "mode", "oracle", "stream", name)
		p := rowOf(t, rows, "mode", "probing", "stream", name)
		t.Logf("%s: oracle %v | probing %v", name, o, p)
		if pv, ov := num(t, p["sustained_95pct"]), num(t, o["sustained_95pct"]); pv < ov*0.95 {
			t.Errorf("%s: probing sustained %.3f vs oracle %.3f — guarantees collapsed", name, pv, ov)
		}
	}
}

// TestDispersionOracleIsPlainRun: the dispersion figure's oracle mode is
// the plain SmartPointer scenario under PGOS — Dispersion unset changes
// nothing about a run.
func TestDispersionOracleIsPlainRun(t *testing.T) {
	rows := tableRows(shapeRun(t, "probing_ablation_seed42.golden")[0])
	res, err := Run(RunConfig{Algorithm: AlgPGOS, Seed: 42, DurationSec: 120, WarmupSec: 60}, SmartPointer)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range res.Streams[:2] {
		o := rowOf(t, rows, "mode", "oracle", "stream", ss.Name)
		for _, c := range [][2]string{
			{"mean", fmt.Sprintf("%.3f", ss.Summary.Mean)},
			{"sustained_95pct", fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.95))},
			{"stddev", fmt.Sprintf("%.4f", ss.Summary.StdDev)},
		} {
			if o[c[0]] != c[1] {
				t.Errorf("%s %s: oracle row %s, plain run %s", ss.Name, c[0], o[c[0]], c[1])
			}
		}
	}
}
