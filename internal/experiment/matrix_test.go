package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// runMatrix runs the matrix figure over m.
func runMatrix(m Matrix) (Table, error) {
	tables, err := simulated(Scenario{}, matrixCells, matrixTable)(Params{Matrix: m})
	if err != nil {
		return Table{}, err
	}
	return tables[0], nil
}

func TestRunMatrixUnknownArmAndWorkload(t *testing.T) {
	m := DefaultMatrix()
	m.Workloads = []string{"nope"}
	if _, err := runMatrix(m); err == nil || !strings.Contains(err.Error(), "cbr") {
		t.Fatalf("unknown workload should error listing known ones, got %v", err)
	}
	m = DefaultMatrix()
	m.Arms = []string{"nope"}
	m.Workloads = []string{"cbr"}
	m.Seeds = []int64{1}
	m.Bands = m.Bands[:1]
	if _, err := runMatrix(m); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown arm should error through the registry, got %v", err)
	}
	if _, err := runMatrix(Matrix{}); err == nil {
		t.Fatal("empty matrix should error")
	}
}

func TestDrawScenarioDeterministic(t *testing.T) {
	b := DefaultBands()[1]
	a1 := b.Draw(7)
	a2 := b.Draw(7)
	if fmt.Sprintf("%+v", a1) != fmt.Sprintf("%+v", a2) {
		t.Fatalf("same (band, seed) drew different scenarios:\n%+v\n%+v", a1, a2)
	}
	other := b.Draw(8)
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
	t.Parallel()
	t.Run("cells", func(t *testing.T) {
		t.Parallel()
		m := Matrix{
			Arms:      []string{AlgMSFQ, AlgPGOS},
			Workloads: []string{"cbr"},
			Bands:     DefaultBands()[:1],
			Seeds:     []int64{1},
		}
		tbl, err := runMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		rows := tableRows(tbl)
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rows))
		}
		for _, r := range rows {
			if num(t, r["agg_mbps"]) <= 0 {
				t.Errorf("cell %s/%s/%s: no goodput", r["arm"], r["workload"], r["band"])
			}
			if num(t, r["clients"]) < 1 {
				t.Errorf("cell %s: no clients drawn", r["arm"])
			}
		}
	})
	// A cell depends on its arm, workload, band and seed alone, not on
	// where the grid puts it: the same grid in either band order renders
	// the same row for every cell.
	t.Run("band_order", func(t *testing.T) {
		t.Parallel()
		bands := map[string]Band{}
		for _, b := range DefaultBands() {
			bands[b.Name] = b
		}
		sortedRows := func(order ...string) []string {
			m := Matrix{Arms: []string{AlgPGOS, AlgWFQ}, Workloads: []string{"cbr"}, Seeds: []int64{1}}
			for _, name := range order {
				m.Bands = append(m.Bands, bands[name])
			}
			tbl, err := runMatrix(m)
			if err != nil {
				t.Fatal(err)
			}
			var rows []string
			for _, r := range tbl.Rows {
				rows = append(rows, strings.Join(r, ","))
			}
			sort.Strings(rows)
			return rows
		}
		a, b := sortedRows("lan", "congested"), sortedRows("congested", "lan")
		if len(a) != 4 || !slices.Equal(a, b) {
			t.Fatalf("cells differ with the band order:\nlan,congested:\n%s\ncongested,lan:\n%s",
				strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	})
}

// TestRenderMatrixGoldenDeterminism pins the renderer's formatting against
// a fixed row set — layout drifts fail without rerunning the grid.
func TestRenderMatrixGoldenDeterminism(t *testing.T) {
	rows := Table{Header: matrixHeader, Rows: [][]string{
		matrixRow("PGOS", "cbr", BandDraw{Band: "lan", Seed: 1, Clients: 2, Providers: 1, Bystanders: 3}, 0.0625, 42.125, 1.5),
		matrixRow("WFQ", "gridftp", BandDraw{Band: "wan", Seed: 7, Clients: 4, Providers: 2, Bystanders: 0}, 1, 0.5, 12.25),
	}}
	var tbl, csv strings.Builder
	if err := rows.Write(&tbl, false); err != nil {
		t.Fatal(err)
	}
	if err := rows.Write(&csv, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "matrix_render.golden", tbl.String()+"== csv\n"+csv.String())
}
