package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// clusterGoldenConfig is the reduced sweep the determinism goldens pin:
// two overlay sizes, enough churn to exercise loss repair and
// representative failover, small enough for tier-1.
func clusterGoldenConfig(seed int64) ClusterConfig {
	return ClusterConfig{Nodes: []int{100, 400}, Events: 25, Rounds: 120, Drain: 20, Seed: seed}
}

// TestClusterAcceptance checks the figure's structural claims on the
// default seed: every row differentially matches the oracle, the delta
// engine's wire cost is sublinear vs flood at ≥1000 nodes, and
// per-node-per-round bytes stay roughly flat as the overlay grows.
func TestClusterAcceptance(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	rows, err := RunCluster(ClusterConfig{Nodes: []int{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byKey := map[string]ClusterRow{}
	for _, r := range rows {
		if !r.TablesMatch {
			t.Fatalf("row %+v: tables did not match the oracle", r)
		}
		if r.MeanConvTicks <= 0 || r.KBytes <= 0 {
			t.Fatalf("row %+v: degenerate measurement", r)
		}
		if r.ViolatedFrac < 0 || r.ViolatedFrac >= 1 {
			t.Fatalf("row %+v: violated fraction out of range", r)
		}
		byKey[fmt.Sprintf("%s/%d", r.Mode, r.Nodes)] = r
	}
	if d, f := byKey["delta/1000"], byKey["flood/1000"]; d.KBytes > f.KBytes*0.1 {
		t.Fatalf("delta not sublinear at 1000 nodes: %.0fKB vs flood %.0fKB", d.KBytes, f.KBytes)
	}
	// Flat per-node cost: growing the overlay 10× must not grow the
	// delta engine's per-node-per-round bytes by anything close to 10×.
	if d100, d1000 := byKey["delta/100"], byKey["delta/1000"]; d1000.BPerNodeRound > d100.BPerNodeRound*4 {
		t.Fatalf("delta per-node cost not flat: %.1f B/node-round at 1000 vs %.1f at 100",
			d1000.BPerNodeRound, d100.BPerNodeRound)
	}
}

// TestGoldenCluster pins the cluster figure byte-identically under
// seeds {1, 7, 42} — deterministic replay of the full pipeline: script,
// mesh, oracle, differential comparison, rendering.
func TestGoldenCluster(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rows, err := RunCluster(clusterGoldenConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := RenderCluster(rows).Write(&b, true); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("cluster_seed%d.golden", seed), b.String())
		})
	}
}

// TestRenderCluster sanity-checks both render shapes on a tiny sweep.
func TestRenderCluster(t *testing.T) {
	rows, err := RunCluster(ClusterConfig{Nodes: []int{50}, Events: 8, Rounds: 40, Drain: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv, tab strings.Builder
	if err := RenderCluster(rows).Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	if err := RenderCluster(rows).Write(&tab, false); err != nil {
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
	if _, err := RunCluster(ClusterConfig{Nodes: []int{0}}); err == nil {
		t.Fatal("expected error for zero node count")
	}
}
