package experiment

import "testing"

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
