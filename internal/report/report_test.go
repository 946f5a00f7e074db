package report

import (
	"bytes"
	"strings"
	"testing"

	"iqpaths/internal/experiment"
)

func TestLineChartRenders(t *testing.T) {
	c := &LineChart{
		Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2}, Y: []float64{1, 3, 2}},
			{Name: "b", X: []float64{0, 1, 2}, Y: []float64{2, 2, 2}},
		},
	}
	svg := c.Render()
	for _, want := range []string{"<svg", "</svg>", "polyline", ">a<", ">b<", ">t<"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("one polyline per series expected")
	}
}

func TestLineChartEmptyAndEscaping(t *testing.T) {
	c := &LineChart{Title: `<b>&"x"`, Series: nil}
	svg := c.Render()
	if strings.Contains(svg, "<b>") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(svg, "&lt;b&gt;") {
		t.Fatal("escaped title missing")
	}
}

func TestTicksAreRound(t *testing.T) {
	for _, tc := range []struct{ lo, hi float64 }{{0, 100}, {3.2, 87.5}, {0, 1}, {-5, 5}} {
		tk := ticks(tc.lo, tc.hi)
		if len(tk) == 0 || len(tk) > maxTicks+2 {
			t.Fatalf("ticks(%v,%v) = %v", tc.lo, tc.hi, tk)
		}
		for i := 1; i < len(tk); i++ {
			if tk[i] <= tk[i-1] {
				t.Fatalf("ticks not increasing: %v", tk)
			}
		}
	}
	if got := ticks(5, 5); len(got) != 1 {
		t.Fatalf("degenerate range: %v", got)
	}
}

func TestGenerateFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	cfg := experiment.RunConfig{Seed: 7, DurationSec: 15, WarmupSec: 30}
	smart, err := experiment.RunArms(cfg, experiment.RunSmartPointer, experiment.SmartPointerArms...)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := experiment.RunArms(cfg, experiment.RunGridFTP, experiment.GridFTPArms...)
	if err != nil {
		t.Fatal(err)
	}
	videoFig, err := experiment.Lookup("video")
	if err != nil {
		t.Fatal(err)
	}
	video, err := videoFig[0].Run(experiment.Params{Run: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Generate(&buf, Data{
		Fig4:        experiment.Fig4(experiment.Fig4Config{Seed: 7, Samples: 8000}),
		Smart:       smart,
		Grid:        grid,
		Video:       video,
		GeneratedBy: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html", "Figure 4", "SmartPointer", "GridFTP", "FGS video",
		"Fig. 9 — PGOS", "Fig. 10 CDF — Atom", "Fig. 13 CDF — DT1", "<th>base_miss_rate</th>",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if n := strings.Count(html, "<svg"); n < 12 {
		t.Fatalf("only %d charts rendered", n)
	}
}

func TestGenerateEmptyData(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, Data{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IQ-Paths") {
		t.Fatal("default title missing")
	}
}
