package experiment

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunMatrixUnknownArmAndWorkload(t *testing.T) {
	m := DefaultMatrix()
	m.Workloads = []string{"nope"}
	if _, err := RunMatrix(m); err == nil || !strings.Contains(err.Error(), "cbr") {
		t.Fatalf("unknown workload should error listing known ones, got %v", err)
	}
	m = DefaultMatrix()
	m.Arms = []string{"nope"}
	m.Workloads = []string{"cbr"}
	m.Seeds = []int64{1}
	m.Bands = m.Bands[:1]
	m.WarmupSec, m.DurationSec = 1, 1
	if _, err := RunMatrix(m); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown arm should error through the registry, got %v", err)
	}
	if _, err := RunMatrix(Matrix{}); err == nil {
		t.Fatal("empty matrix should error")
	}
}

func TestDrawScenarioDeterministic(t *testing.T) {
	b := DefaultBands()[1]
	a1 := DrawScenario(b, 7)
	a2 := DrawScenario(b, 7)
	if fmt.Sprintf("%+v", a1) != fmt.Sprintf("%+v", a2) {
		t.Fatalf("same (band, seed) drew different scenarios:\n%+v\n%+v", a1, a2)
	}
	other := DrawScenario(b, 8)
	if fmt.Sprintf("%+v", a1) == fmt.Sprintf("%+v", other) {
		t.Fatal("different seeds drew identical scenarios")
	}
	if a1.Clients < b.Clients[0] || a1.Clients > b.Clients[1] {
		t.Fatalf("clients %d outside band range %v", a1.Clients, b.Clients)
	}
	for _, p := range a1.Paths {
		if p.BandwidthMbps < b.BandwidthMbps[0] || p.BandwidthMbps > b.BandwidthMbps[1] {
			t.Fatalf("bandwidth %v outside band range %v", p.BandwidthMbps, b.BandwidthMbps)
		}
	}
}

func TestMatrixSmoke(t *testing.T) {
	skipIfRace(t)
	m := Matrix{
		Arms:      []string{AlgMSFQ, AlgPGOS},
		Workloads: []string{"cbr"},
		Bands:     DefaultBands()[:1],
		Seeds:     []int64{1},
		WarmupSec: 2, DurationSec: 4,
	}
	res, err := RunMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.AggMbps <= 0 {
			t.Errorf("cell %s/%s/%s: no goodput", r.Arm, r.Workload, r.Band)
		}
		if r.Clients < 1 {
			t.Errorf("cell %s: no clients drawn", r.Arm)
		}
	}
}

// TestRenderMatrixGoldenDeterminism pins the renderer's formatting against
// a fixed row set — layout drifts fail without rerunning the grid.
func TestRenderMatrixGoldenDeterminism(t *testing.T) {
	res := &MatrixResult{Rows: []CellRow{
		{Arm: "PGOS", Workload: "cbr", Band: "lan", Seed: 1, Clients: 2, Providers: 1,
			Bystanders: 3, ViolatedFrac: 0.0625, AggMbps: 42.125, DelayJitterMs: 1.5},
		{Arm: "WFQ", Workload: "gridftp", Band: "wan", Seed: 7, Clients: 4, Providers: 2,
			Bystanders: 0, ViolatedFrac: 1, AggMbps: 0.5, DelayJitterMs: 12.25},
	}}
	var tbl, csv strings.Builder
	if err := RenderMatrix(res).Write(&tbl, false); err != nil {
		t.Fatal(err)
	}
	if err := RenderMatrix(res).Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "matrix_render.golden", tbl.String()+"== csv\n"+csv.String())
}

// TestGoldenMatrix pins the full default grid byte-identically per seed,
// the same determinism contract the fig9/fig12 goldens enforce.
func TestGoldenMatrix(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			m := DefaultMatrix()
			m.Seeds = []int64{seed}
			res, err := RunMatrix(m)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := RenderMatrix(res).Write(&b, true); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("matrix_seed%d.golden", seed), b.String())
		})
	}
}
