package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one rendered figure table: a header row and its data rows.
// Every Render* function returns one; Write decides the output format.
type Table struct {
	Header []string
	Rows   [][]string
}

// Write renders t as CSV (no quoting — every cell this package produces
// is numeric or a simple identifier) or as an aligned text table.
func (t Table) Write(w io.Writer, csv bool) error {
	var b strings.Builder
	if csv {
		b.WriteString(strings.Join(t.Header, ",") + "\n")
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
				if pad := widths[i] - len(c); i < len(cells)-1 && pad > 0 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
			b.WriteByte('\n')
		}
		line(t.Header)
		total := 0
		for _, x := range widths {
			total += x + 2
		}
		b.WriteString(strings.Repeat("-", total) + "\n")
		for _, r := range t.Rows {
			line(r)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderFig4 renders the Figure 4 series.
func RenderFig4(points []Fig4Point) Table {
	header := []string{"window_s", "mean_pred_err", "pctl_fail_rate", "MA", "SMA", "EWMA", "AR1"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.WindowSec),
			fmt.Sprintf("%.4f", p.MeanErr),
			fmt.Sprintf("%.4f", p.PctlFail),
			fmt.Sprintf("%.4f", p.MeanErrBy["MA"]),
			fmt.Sprintf("%.4f", p.MeanErrBy["SMA"]),
			fmt.Sprintf("%.4f", p.MeanErrBy["EWMA"]),
			fmt.Sprintf("%.4f", p.MeanErrBy["AR1"]),
		})
	}
	return Table{Header: header, Rows: rows}
}

// RenderSeries renders one run's throughput time series (Figs. 9 and 12):
// a row per sample with one column per stream, plus per-path columns for
// streams that used several paths.
func RenderSeries(res Result) Table {
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

// RenderCDFs renders the Fig. 10/13 CDF rows.
func RenderCDFs(rows []CDFRow) Table {
	header := []string{"algorithm", "stream"}
	for _, q := range CDFQuantiles {
		header = append(header, fmt.Sprintf("p%02.0f", q*100))
	}
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Algorithm, r.Stream}
		for _, v := range r.Mbps {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		out = append(out, cells)
	}
	return Table{Header: header, Rows: out}
}

// RenderFaults renders the fault-scenario comparison: one row per
// algorithm × stream, with the per-algorithm recovery columns repeated on
// each of the algorithm's rows for grep-ability.
func RenderFaults(res *FaultsResult) Table {
	header := []string{"algorithm", "stream", "target_mbps", "delivered_mbps",
		"windows", "violated", "violated_frac", "mean_shortfall_pkts",
		"remaps", "recovery_windows", "fault_events"}
	var rows [][]string
	for _, run := range res.Runs {
		recovery := "-"
		if run.RecoveryWindows >= 0 {
			recovery = fmt.Sprintf("%d", run.RecoveryWindows)
		}
		for _, s := range run.Streams {
			rows = append(rows, []string{
				run.Algorithm, s.Name,
				fmt.Sprintf("%.3f", s.RequiredMbps),
				fmt.Sprintf("%.3f", s.DeliveredMbps),
				fmt.Sprintf("%d", s.Windows),
				fmt.Sprintf("%d", s.ViolatedWindows),
				fmt.Sprintf("%.4f", s.ViolatedFrac),
				fmt.Sprintf("%.3f", s.MeanShortfall),
				fmt.Sprintf("%d", run.Remaps),
				recovery,
				fmt.Sprintf("%d", run.FaultEvents),
			})
		}
	}
	return Table{Header: header, Rows: rows}
}

// RenderFig11 renders the Fig. 11 summary rows.
func RenderFig11(rows []Fig11Row) Table {
	header := []string{"algorithm", "stream", "target_mbps", "mean", "sustained_95pct", "sustained_99pct", "stddev", "jitter_ms"}
	var out [][]string
	for _, r := range rows {
		jitter := "-" // frames not tracked for this stream
		if r.JitterMs > 0 {
			jitter = fmt.Sprintf("%.3f", r.JitterMs)
		}
		out = append(out, []string{
			r.Algorithm, r.Stream,
			fmt.Sprintf("%.3f", r.Target),
			fmt.Sprintf("%.3f", r.Mean),
			fmt.Sprintf("%.3f", r.P95Time),
			fmt.Sprintf("%.3f", r.P99Time),
			fmt.Sprintf("%.4f", r.StdDev),
			jitter,
		})
	}
	return Table{Header: header, Rows: out}
}

// RenderChurn renders the static-vs-control churn comparison rows.
func RenderChurn(res *ChurnResult) Table {
	header := []string{"mode", "stream", "target_mbps", "delivered_mbps",
		"windows", "violated", "violated_frac", "mean_shortfall_pkts",
		"reroutes", "converge_s", "remaps", "control_events"}
	var rows [][]string
	for _, run := range []ChurnRun{res.Static, res.Control} {
		converge := "-"
		if run.ConvergeTicks >= 0 {
			converge = fmt.Sprintf("%.2f", run.ConvergeSec)
		}
		for _, s := range run.Streams {
			rows = append(rows, []string{
				run.Mode, s.Name,
				fmt.Sprintf("%.3f", s.RequiredMbps),
				fmt.Sprintf("%.3f", s.DeliveredMbps),
				fmt.Sprintf("%d", s.Windows),
				fmt.Sprintf("%d", s.ViolatedWindows),
				fmt.Sprintf("%.4f", s.ViolatedFrac),
				fmt.Sprintf("%.3f", s.MeanShortfall),
				fmt.Sprintf("%d", run.Reroutes),
				converge,
				fmt.Sprintf("%d", run.Remaps),
				fmt.Sprintf("%d", run.ControlEvents),
			})
		}
	}
	return Table{Header: header, Rows: rows}
}
