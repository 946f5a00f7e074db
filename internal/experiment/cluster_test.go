package experiment

import (
	"strings"
	"testing"
)

// TestClusterAcceptance checks the figure's structural claims on the
// default seed: every row differentially matches the oracle, the delta
// engine's wire cost is sublinear vs flood at ≥1000 nodes, and
// per-node-per-round bytes stay roughly flat as the overlay grows.
func TestClusterAcceptance(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	t.Parallel()
	tbl, err := runCluster(ClusterConfig{Nodes: []int{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(tbl)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r["tables_match"] != "true" {
			t.Fatalf("row %v: tables did not match the oracle", r)
		}
		if num(t, r["mean_conv_ticks"]) <= 0 || num(t, r["kbytes"]) <= 0 {
			t.Fatalf("row %v: degenerate measurement", r)
		}
		if v := num(t, r["violated_frac"]); v < 0 || v >= 1 {
			t.Fatalf("row %v: violated fraction out of range", r)
		}
	}
	cell := func(mode, nodes, col string) float64 {
		return num(t, rowOf(t, rows, "mode", mode, "nodes", nodes)[col])
	}
	if d, f := cell("delta", "1000", "kbytes"), cell("flood", "1000", "kbytes"); d > f*0.1 {
		t.Fatalf("delta not sublinear at 1000 nodes: %.0fKB vs flood %.0fKB", d, f)
	}
	// Flat per-node cost: growing the overlay 10× must not grow the
	// delta engine's per-node-per-round bytes by anything close to 10×.
	if d100, d1000 := cell("delta", "100", "B_per_node_round"), cell("delta", "1000", "B_per_node_round"); d1000 > d100*4 {
		t.Fatalf("delta per-node cost not flat: %.1f B/node-round at 1000 vs %.1f at 100", d1000, d100)
	}
}

// TestRenderCluster sanity-checks both render shapes on a tiny sweep.
func TestRenderCluster(t *testing.T) {
	tbl, err := runCluster(ClusterConfig{Nodes: []int{50}, Events: 8, Rounds: 40, Drain: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv, tab strings.Builder
	if err := tbl.Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Write(&tab, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "mean_conv_ticks") || !strings.Contains(csv.String(), "delta") {
		t.Fatalf("csv missing expected columns:\n%s", csv.String())
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", csv.String())
	}
}

func TestRunClusterRejectsBadNodes(t *testing.T) {
	if _, err := runCluster(ClusterConfig{Nodes: []int{0}}); err == nil {
		t.Fatal("expected error for zero node count")
	}
}
