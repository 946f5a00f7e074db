package experiment

import (
	"fmt"
	"math"

	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

// The path-count sweep runs pathsScenario over pathCounts concurrent
// overlay paths: one stream asks for 70 Mbps at 95 % (more than any single
// path's lower tail supports) beside a backlogged bulk stream. With one
// path the ask is refused; with two it is admitted split; more paths add
// headroom and stability — the §5.2.2 multi-path guarantee combination.
var (
	pathsScenario = Scenario{Workload: Workload{PaceLimit: bulkPace, New: newAdmittedCount}}
	pathCounts    = []int{1, 2, 3, 4}
)

// admittedCount is the path-count sweep's workload: the ask plus bulk,
// counting the measured samples in which the ask was admitted (admission
// re-evaluates as distributions drift), beside the ask's own throughput
// series. Result's series sums per-path Mbps, a different float order
// that moves the printed mean at some seeds (seed 7, 20 s measured).
type admittedCount struct {
	sources
	admitted, samples int
	series            []float64
}

func newAdmittedCount(h *Harness, cfg RunConfig) workload {
	const ask = 70 // Mbps at 95 % — beyond any single path's lower tail
	w := &admittedCount{sources: askWithBulk(h.Net, stream.Spec{
		Name: "crit", Kind: stream.Probabilistic, RequiredMbps: ask, Probability: 0.95,
	})}
	sampleTicks := int64(sampleSec / h.Net.TickSeconds())
	warmupTicks := int64(cfg.WarmupSec / h.Net.TickSeconds())
	bits := 0.0
	h.OnDeliver = func(_ int, pkt *simnet.Packet, _ int64) {
		if pkt.Stream == 0 {
			bits += pkt.Bits
		}
	}
	h.PostTick = func(t int64) {
		if (t+1)%sampleTicks != 0 {
			return
		}
		if t >= warmupTicks {
			w.series = append(w.series, bits/1e6/sampleSec)
			w.samples++
			if m := h.Scheduler.(*pgos.Scheduler).Mapping(); len(m.Rejected) > 0 && !m.Rejected[0] {
				w.admitted++
			}
		}
		bits = 0
	}
	return w
}

// askOutcome is what the path-count sweep measured in one run.
type askOutcome struct {
	admittedFrac float64
	sum          stats.Summary
}

func (w *admittedCount) measured() any {
	return askOutcome{float64(w.admitted) / float64(max(1, w.samples)), stats.Summarize(w.series)}
}

// pathsTable renders a row per path count: the fraction of samples in
// which the ask was admitted beside its mean, sustained-95 % level and σ.
func pathsTable(_ Params, results []Result) []Table {
	t := Table{Header: []string{"paths", "admitted_frac", "mean", "sustained_95pct", "stddev"}}
	for k, res := range results {
		o := res.measured.(askOutcome)
		t.Rows = append(t.Rows, []string{fmt.Sprint(pathCounts[k]), fmt.Sprintf("%.3f", o.admittedFrac),
			fmt.Sprintf("%.2f", o.sum.Mean), fmt.Sprintf("%.2f", o.sum.SustainedAt(0.95)), fmt.Sprintf("%.4f", o.sum.StdDev)})
	}
	return []Table{t}
}

// violationBound drives a violation-bound stream (E[Z] ≤ maxViolations
// missed packets per window) through the two-path testbed alongside a bulk
// stream, measuring the realized per-window shortfall against the bound.
// PGOS is built by hand: the remap trace's committed bit is stream 0's own
// admission, where the registry's adapter reports whether any stream (the
// best-effort bulk one included) was committed.
func violationBound(requiredMbps, maxViolations float64) Scenario {
	return Scenario{
		Topology: fig8,
		Workload: Workload{PaceLimit: bulkPace, New: func(h *Harness, cfg RunConfig) workload {
			return newShortfallCheck(h, cfg, stream.Spec{
				Name: "vb", Kind: stream.ViolationBound,
				RequiredMbps: requiredMbps, MaxViolations: maxViolations,
			})
		}},
		build: func(bc sched.BuildConfig) (sched.Scheduler, error) {
			return pgos.New(pgos.Config{
				TwSec:       bc.TwSec,
				TickSeconds: bc.TickSeconds,
				PaceLimit:   bc.PaceLimit,
				Telemetry:   bc.Telemetry,
				OnRemap: func(m pgos.Mapping, latencySec float64) {
					bc.OnRemap(latencySec, len(m.Rejected) > 0 && !m.Rejected[0])
				},
			}, bc.Streams, bc.Paths, bc.Monitors), nil
		},
	}
}

// shortfallCheck is the violation-bound workload with an independent
// per-window shortfall count, checked against the telemetry accountant's.
type shortfallCheck struct {
	sources
	perWindow []float64
}

func newShortfallCheck(h *Harness, cfg RunConfig, spec stream.Spec) *shortfallCheck {
	w := &shortfallCheck{sources: askWithBulk(h.Net, spec)}
	quota := w.streams[0].RequiredPacketsPerWindow(cfg.TwSec)
	windowTicks := int64(cfg.TwSec / h.Net.TickSeconds())
	warmupTicks := int64(cfg.WarmupSec / h.Net.TickSeconds())
	delivered := 0
	h.OnDeliver = func(_ int, pkt *simnet.Packet, _ int64) {
		if pkt.Stream == 0 {
			delivered++
		}
	}
	h.PostTick = func(t int64) {
		if (t+1)%windowTicks != 0 {
			return
		}
		if t >= warmupTicks {
			w.perWindow = append(w.perWindow, math.Max(float64(quota-delivered), 0))
		}
		delivered = 0
	}
	return w
}

func (w *shortfallCheck) measured() any { return w.perWindow }

// violationBoundCheck checks a violation-bound run independently of the
// telemetry accountant, whose account of stream 0 must agree: the ask was
// admitted unless some remap left it uncommitted (the remap trace's
// committed bit is stream 0's), and the run's own per-window count gives
// the mean and worst shortfall in packets.
func violationBoundCheck(res Result) (admitted bool, mean, worst float64) {
	admitted = true
	for _, e := range res.Telemetry.Events {
		if e.Name == "remap" && e.Value == 0 {
			admitted = false
		}
	}
	perWindow := res.measured.([]float64)
	for _, v := range perWindow {
		mean += v
		worst = math.Max(worst, v)
	}
	if len(perWindow) > 0 {
		mean /= float64(len(perWindow))
	}
	return admitted, mean, worst
}

// violationBoundTables renders a violation-bound run: the ask and the
// run's own check, the accountant's per-stream record, and the traced
// remaps with the stream-0 committed bit each carried.
func violationBoundTables(res Result) []Table {
	vb := res.Telemetry.Streams[0]
	admitted, mean, worst := violationBoundCheck(res)
	ask := Table{
		Header: []string{"required_mbps", "max_violations", "admitted", "mean_violations", "worst_violations"},
		Rows: [][]string{{fmt.Sprint(vb.RequiredMbps), fmt.Sprint(vb.MaxViolations), fmt.Sprint(admitted),
			fmt.Sprint(mean), fmt.Sprint(worst)}},
	}
	accounts := Table{Header: []string{"stream", "windows", "violated", "mean_shortfall", "delivered_mbps"}}
	for _, a := range res.Telemetry.Streams {
		accounts.Rows = append(accounts.Rows, []string{a.Name, fmt.Sprint(a.Windows), fmt.Sprint(a.ViolatedWindows),
			fmt.Sprint(a.MeanShortfall), fmt.Sprint(a.DeliveredMbps)})
	}
	remaps := Table{Header: []string{"remap_t_s", "committed"}}
	for _, e := range res.Telemetry.Events {
		if e.Name == "remap" {
			remaps.Rows = append(remaps.Rows, []string{fmt.Sprint(e.T), fmt.Sprint(e.Value)})
		}
	}
	return []Table{ask, accounts, remaps}
}
