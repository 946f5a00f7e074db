package experiment

import "testing"

// TestMultiSeedAggregation: across seeds, PGOS's Bond1 stability must
// beat MSFQ's beyond a standard error.
func TestMultiSeedAggregation(t *testing.T) {
	rows := tableRows(shapeRun(t, "multiseed_seeds42_7_100.golden")[0])
	if len(rows) != 8 { // 4 algorithms × 2 streams
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r["seeds"] != "3" {
			t.Fatalf("seeds = %s", r["seeds"])
		}
	}
	pg, ms := rowOf(t, rows, "algorithm", AlgPGOS, "stream", "Bond1"), rowOf(t, rows, "algorithm", AlgMSFQ, "stream", "Bond1")
	if num(t, pg["stddev"])+num(t, pg["stddev_se"]) >= num(t, ms["stddev"])-num(t, ms["stddev_se"]) {
		t.Errorf("PGOS σ %s±%s should undercut MSFQ σ %s±%s across seeds",
			pg["stddev"], pg["stddev_se"], ms["stddev"], ms["stddev_se"])
	}
}
