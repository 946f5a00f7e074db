package report

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"iqpaths/internal/experiment"
)

// Data bundles everything the HTML report renders. Nil/empty sections are
// skipped.
type Data struct {
	Title string
	Fig4  []experiment.Fig4Point
	// Smart and Grid are the §6 suites' runs, which the smartpointer and
	// gridftp figures hand to experiment.Params.OnSuite, charted as Figs.
	// 9–10 and 12–13.
	Smart, Grid []experiment.Result
	// Video is the video figure's tables (experiment.Lookup("video")).
	Video       []experiment.Table
	GeneratedBy string
}

// htmlTable renders a figure table as an HTML table.
func htmlTable(t experiment.Table) template.HTML {
	var b strings.Builder
	cells := func(tag string, row []string) {
		b.WriteString("<tr>")
		for _, c := range row {
			fmt.Fprintf(&b, "<%s>%s</%s>", tag, template.HTMLEscapeString(c), tag)
		}
		b.WriteString("</tr>")
	}
	b.WriteString("<table>")
	cells("th", t.Header)
	for _, r := range t.Rows {
		cells("td", r)
	}
	b.WriteString("</table>")
	return template.HTML(b.String())
}

// Generate writes the self-contained HTML report.
func Generate(w io.Writer, d Data) error {
	if d.Title == "" {
		d.Title = "IQ-Paths — experiment report"
	}
	type section struct {
		Heading string
		Note    string
		Charts  []template.HTML
		Table   template.HTML
	}
	var sections []section

	if len(d.Fig4) > 0 {
		c := &LineChart{
			Title: "Fig. 4 — bandwidth prediction", XLabel: "measurement window (s)", YLabel: "error / failure rate",
		}
		var xs, mean, pctl []float64
		for _, p := range d.Fig4 {
			xs = append(xs, p.WindowSec)
			mean = append(mean, p.MeanErr)
			pctl = append(pctl, p.PctlFail)
		}
		c.Series = []Series{{Name: "mean predictors", X: xs, Y: mean}, {Name: "percentile", X: xs, Y: pctl}}
		sections = append(sections, section{
			Heading: "Figure 4 — statistical vs mean bandwidth prediction",
			Note:    "Average relative error of the mean predictors vs the percentile prediction failure rate, across measurement windows.",
			Charts:  []template.HTML{template.HTML(c.Render())},
		})
	}

	addSuite := func(results []experiment.Result, heading, figSeries, figCDF string) {
		if len(results) == 0 {
			return
		}
		var charts []template.HTML
		for _, res := range results {
			c := &LineChart{Title: fmt.Sprintf("%s — %s", figSeries, res.Algorithm), XLabel: "time (s)", YLabel: "throughput (Mbps)"}
			for _, ss := range res.Streams {
				xs := make([]float64, len(ss.Total))
				for i := range xs {
					xs[i] = float64(i+1) * res.SampleSec
				}
				c.Series = append(c.Series, Series{Name: ss.Name, X: xs, Y: ss.Total})
			}
			charts = append(charts, template.HTML(c.Render()))
		}
		// CDFs: one chart per stream, one curve per algorithm.
		for si, st := range results[0].Streams {
			c := &LineChart{
				Title:  fmt.Sprintf("%s — %s", figCDF, st.Name),
				XLabel: "throughput (Mbps)", YLabel: "CDF", YMin: 0, YMax: 1,
			}
			for _, res := range results {
				sorted := res.Streams[si].Summary.Samples
				xs := make([]float64, len(sorted))
				ys := make([]float64, len(sorted))
				for i, v := range sorted {
					xs[i] = v
					ys[i] = float64(i+1) / float64(len(sorted))
				}
				c.Series = append(c.Series, Series{Name: res.Algorithm, X: xs, Y: ys})
			}
			charts = append(charts, template.HTML(c.Render()))
		}
		sections = append(sections, section{Heading: heading, Charts: charts})
	}
	addSuite(d.Smart, "Figures 9–10 — SmartPointer", "Fig. 9", "Fig. 10 CDF")
	addSuite(d.Grid, "Figures 12–13 — GridFTP vs IQPG-GridFTP", "Fig. 12", "Fig. 13 CDF")

	for _, t := range d.Video {
		sections = append(sections, section{
			Heading: "Layered MPEG-4 FGS video playback",
			Table:   htmlTable(t),
		})
	}

	tmpl := template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font-family: sans-serif; max-width: 960px; margin: 2em auto; color: #222; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: .3em; }
h2 { margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th { background: #f4f6f8; }
.note { color: #555; }
svg { margin: .5em 0; }
footer { margin-top: 3em; color: #888; font-size: .85em; }
</style></head><body>
<h1>{{.Title}}</h1>
{{range .Sections}}<h2>{{.Heading}}</h2>
{{if .Note}}<p class="note">{{.Note}}</p>{{end}}
{{range .Charts}}{{.}}{{end}}
{{if .Table}}{{.Table}}{{end}}
{{end}}
<footer>{{.GeneratedBy}}</footer>
</body></html>
`))
	return tmpl.Execute(w, struct {
		Title       string
		Sections    []section
		GeneratedBy string
	}{d.Title, sections, d.GeneratedBy})
}
