package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Table is one rendered figure table: a header row and its data rows,
// optionally after a blank line and a title line. Every figure renders to
// a list of them; Write decides the output format.
type Table struct {
	// Title, when set, is written as a "== Title" line above the table.
	Title string
	// Gap writes a blank line above the table (and its title).
	Gap bool
	// Header is nil for a table of free-form lines, one cell per row.
	Header []string
	Rows   [][]string
}

// Write renders t as CSV (no quoting — every cell this package produces
// is numeric or a simple identifier) or as an aligned text table.
func (t Table) Write(w io.Writer, csv bool) error {
	var b strings.Builder
	if t.Gap {
		b.WriteByte('\n')
	}
	if t.Title != "" {
		b.WriteString("== " + t.Title + "\n")
	}
	if csv {
		if t.Header != nil {
			b.WriteString(strings.Join(t.Header, ",") + "\n")
		}
		for _, r := range t.Rows {
			b.WriteString(strings.Join(r, ",") + "\n")
		}
	} else {
		widths := make([]int, len(t.Header))
		for i, h := range t.Header {
			widths[i] = len(h)
		}
		for _, r := range t.Rows {
			for i, c := range r {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(c)
				if i < len(cells)-1 && i < len(widths) && widths[i] > len(c) {
					b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				}
			}
			b.WriteByte('\n')
		}
		if t.Header != nil {
			line(t.Header)
			total := 0
			for _, x := range widths {
				total += x + 2
			}
			b.WriteString(strings.Repeat("-", total) + "\n")
		}
		for _, r := range t.Rows {
			line(r)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// seriesTable renders one run's throughput time series (Figs. 9 and 12):
// a row per sample with one column per stream, plus per-path columns for
// streams that used several paths.
func seriesTable(res Result) Table {
	header := []string{"t_s"}
	type col struct {
		stream int
		path   string // "" = total
	}
	var cols []col
	for i, ss := range res.Streams {
		paths := usedPaths(ss)
		if len(paths) > 1 {
			for _, p := range paths {
				header = append(header, fmt.Sprintf("%s-%s", ss.Name, p))
				cols = append(cols, col{i, p})
			}
			header = append(header, ss.Name+"-All")
			cols = append(cols, col{i, ""})
		} else {
			header = append(header, ss.Name)
			cols = append(cols, col{i, ""})
		}
	}
	n := 0
	if len(res.Streams) > 0 {
		n = len(res.Streams[0].Total)
	}
	var rows [][]string
	for k := 0; k < n; k++ {
		row := []string{fmt.Sprintf("%.0f", float64(k+1)*res.SampleSec)}
		for _, c := range cols {
			ss := res.Streams[c.stream]
			v := 0.0
			if c.path == "" {
				v = ss.Total[k]
			} else if series := ss.PerPath[c.path]; k < len(series) {
				v = series[k]
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	return Table{Header: header, Rows: rows}
}

// usedPaths lists the path names over which the stream actually delivered
// a meaningful share (>2 % of its bits), sorted by name.
func usedPaths(ss StreamSeries) []string {
	total := 0.0
	for _, v := range ss.Total {
		total += v
	}
	var out []string
	// maporder: the names are collected, then sorted.
	for name, series := range ss.PerPath {
		sum := 0.0
		for _, v := range series {
			sum += v
		}
		if total > 0 && sum/total > 0.02 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// RenderFig11 renders the Figure 11 summary: how each run served each of
// the named streams (e.g. Atom and Bond1, the two §6.1 bar charts) — its
// target, mean, the levels sustained 95 % and 99 % of the time, σ, and
// frame jitter where frames are tracked.
func RenderFig11(results []Result, streams ...string) Table {
	t := Table{Header: []string{"algorithm", "stream", "target_mbps", "mean", "sustained_95pct", "sustained_99pct", "stddev", "jitter_ms"}}
	for _, res := range results {
		for _, ss := range res.Streams {
			if !slices.Contains(streams, ss.Name) {
				continue
			}
			jitter := "-" // frames not tracked for this stream
			if ms := ss.JitterSec() * 1000; ms > 0 {
				jitter = fmt.Sprintf("%.3f", ms)
			}
			t.Rows = append(t.Rows, []string{
				res.Algorithm, ss.Name,
				fmt.Sprintf("%.3f", ss.RequiredMbps),
				fmt.Sprintf("%.3f", ss.Summary.Mean),
				fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.95)),
				fmt.Sprintf("%.3f", ss.Summary.SustainedAt(0.99)),
				fmt.Sprintf("%.4f", ss.Summary.StdDev),
				jitter,
			})
		}
	}
	return t
}

// cdfQuantiles are the cumulative-probability points rendered for CDF
// figures.
var cdfQuantiles = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// RenderCDFs renders the per-stream throughput CDFs of every run (Figs. 10
// and 13): a row per run and stream, a column per cumulative probability.
func RenderCDFs(results []Result) Table {
	t := Table{Header: []string{"algorithm", "stream"}}
	for _, q := range cdfQuantiles {
		t.Header = append(t.Header, fmt.Sprintf("p%02.0f", q*100))
	}
	for _, res := range results {
		for _, ss := range res.Streams {
			cells := []string{res.Algorithm, ss.Name}
			for _, q := range cdfQuantiles {
				// Summary.SustainedAt(1-q) is the q-quantile of the series.
				cells = append(cells, fmt.Sprintf("%.2f", ss.Summary.SustainedAt(1-q)))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return t
}

// guaranteeRows renders one run's realised guarantees, a row per stream:
// lead cells first, the stream's account, then the run's trailing cells.
func guaranteeRows(lead string, streams []FaultStreamRow, trail ...string) [][]string {
	var rows [][]string
	for _, s := range streams {
		rows = append(rows, append([]string{
			lead, s.Name,
			fmt.Sprintf("%.3f", s.RequiredMbps),
			fmt.Sprintf("%.3f", s.DeliveredMbps),
			fmt.Sprintf("%d", s.Windows),
			fmt.Sprintf("%d", s.ViolatedWindows),
			fmt.Sprintf("%.4f", s.ViolatedFrac),
			fmt.Sprintf("%.3f", s.MeanShortfall),
		}, trail...))
	}
	return rows
}

// guaranteeHeader heads guaranteeRows' columns.
var guaranteeHeader = []string{"stream", "target_mbps", "delivered_mbps",
	"windows", "violated", "violated_frac", "mean_shortfall_pkts"}

// faultsTable renders the fault-scenario comparison: one row per
// algorithm × stream, with the per-algorithm recovery columns repeated on
// each of the algorithm's rows for grep-ability.
func faultsTable(res *FaultsResult) Table {
	t := Table{Header: append(append([]string{"algorithm"}, guaranteeHeader...),
		"remaps", "recovery_windows", "fault_events")}
	for _, run := range res.Runs {
		recovery := "-"
		if run.RecoveryWindows >= 0 {
			recovery = fmt.Sprintf("%d", run.RecoveryWindows)
		}
		t.Rows = append(t.Rows, guaranteeRows(run.Algorithm, run.Streams,
			fmt.Sprintf("%d", run.Remaps), recovery, fmt.Sprintf("%d", run.FaultEvents))...)
	}
	return t
}

// churnTables renders the static-vs-control churn comparison rows, then
// one line per scripted admission decision.
func churnTables(res *ChurnResult) []Table {
	t := Table{Header: append(append([]string{"mode"}, guaranteeHeader...),
		"reroutes", "converge_s", "remaps", "control_events")}
	for _, run := range []ChurnRun{res.Static, res.Control} {
		converge := "-"
		if run.ConvergeTicks >= 0 {
			converge = fmt.Sprintf("%.2f", run.ConvergeSec)
		}
		t.Rows = append(t.Rows, guaranteeRows(run.Mode, run.Streams, fmt.Sprintf("%d", run.Reroutes),
			converge, fmt.Sprintf("%d", run.Remaps), fmt.Sprintf("%d", run.ControlEvents))...)
	}
	var adm Table
	for _, d := range res.Admission {
		adm.Rows = append(adm.Rows, []string{fmt.Sprintf("admission %s admitted=%t reason=%q best_rate=%v best=%v best_p=%v",
			d.Spec, d.Admitted, d.Reason, d.BestRateMbps, d.BestSpec, d.BestProbability)})
	}
	return []Table{t, adm}
}
