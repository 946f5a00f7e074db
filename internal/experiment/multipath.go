package experiment

import (
	"fmt"
	"math"

	"iqpaths/internal/emulab"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// PathsRow is one row of the path-count sweep.
type PathsRow struct {
	NumPaths int
	// AdmittedFrac is the fraction of scheduling windows in which the
	// ask was admitted (admission re-evaluates as distributions drift).
	AdmittedFrac float64
	Mean         float64
	Sustained    float64 // level sustained 95 % of the time
	StdDev       float64
}

// PathsSweep extends the two-path evaluation to 1–4 concurrent overlay
// paths: one stream asks for 60 Mbps at 95 % (more than any single path's
// lower tail supports) plus a backlogged bulk stream. With one path the
// ask is refused; with two it is admitted split; additional paths add
// headroom and stability — the §5.2.2 multi-path guarantee combination.
func PathsSweep(cfg RunConfig) ([]PathsRow, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 170
	}
	var rows []PathsRow
	for n := 1; n <= 4; n++ {
		mp := emulab.BuildN(emulab.Config{Seed: cfg.Seed}, n)
		net := mp.Net
		const ask = 70 // Mbps at 95 % — beyond any single path's lower tail
		crit := stream.New(0, stream.Spec{
			Name: "crit", Kind: stream.Probabilistic, RequiredMbps: ask, Probability: 0.95,
		})
		bulk := stream.New(1, stream.Spec{Name: "bulk"})
		var w sources
		w.add(crit, stream.NewRateSource(net, crit, ask))
		w.add(bulk, stream.NewBacklogSource(net, bulk, 4000))

		tickSec := net.TickSeconds()
		warmupTicks := int64(cfg.WarmupSec / tickSec)
		sampleTicks := int64(cfg.SampleSec / tickSec)
		var scheduler *pgos.Scheduler
		var series []float64
		acc := 0.0
		admittedWindows, totalWindows := 0, 0
		c := cfg
		c.Algorithm = AlgPGOS
		_, err := run(c, net, mp.Paths, w, hooks{
			build: func(bc sched.BuildConfig) (sched.Scheduler, error) {
				s, err := sched.Build(AlgPGOS, bc)
				scheduler, _ = s.(*pgos.Scheduler)
				return s, err
			},
			onDeliver: func(_ int, pkt *simnet.Packet, _ int64) {
				if pkt.Stream == 0 {
					acc += pkt.Bits
				}
			},
			postTick: func(t int64) {
				if (t+1)%sampleTicks != 0 {
					return
				}
				if t >= warmupTicks {
					series = append(series, acc/1e6/cfg.SampleSec)
					m := scheduler.Mapping()
					totalWindows++
					if len(m.Rejected) > 0 && !m.Rejected[0] {
						admittedWindows++
					}
				}
				acc = 0
			},
		})
		if err != nil {
			return nil, err
		}
		sum := stats.Summarize(series)
		row := PathsRow{
			NumPaths:  n,
			Mean:      sum.Mean,
			Sustained: sum.SustainedAt(0.95),
			StdDev:    sum.StdDev,
		}
		if totalWindows > 0 {
			row.AdmittedFrac = float64(admittedWindows) / float64(totalWindows)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPathsSweep renders the sweep rows.
func RenderPathsSweep(rows []PathsRow) Table {
	header := []string{"paths", "admitted_frac", "mean", "sustained_95pct", "stddev"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.NumPaths),
			fmt.Sprintf("%.3f", r.AdmittedFrac),
			fmt.Sprintf("%.2f", r.Mean),
			fmt.Sprintf("%.2f", r.Sustained),
			fmt.Sprintf("%.4f", r.StdDev),
		})
	}
	return Table{Header: header, Rows: out}
}

// ViolationBoundResult reports an end-to-end run of the paper's second
// guarantee type (Lemma 2).
type ViolationBoundResult struct {
	RequiredMbps    float64
	MaxViolations   float64 // the promised E[Z] bound per window
	MeanViolations  float64 // measured mean shortfall packets per window
	WorstViolations float64
	Admitted        bool
	// Telemetry is the run's snapshot; its vb-stream account is computed
	// by the telemetry accountant independently of MeanViolations above,
	// and the two must agree.
	Telemetry *telemetry.Snapshot
}

// RunViolationBound drives a violation-bound stream (E[Z] ≤ bound missed
// packets per 1 s window) through the two-path testbed alongside a bulk
// stream, measuring the realized per-window shortfall against the bound.
func RunViolationBound(cfg RunConfig, requiredMbps, maxViolations float64) (ViolationBoundResult, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 170
	}
	tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
	net := tb.Net
	vb := stream.New(0, stream.Spec{
		Name: "vb", Kind: stream.ViolationBound,
		RequiredMbps: requiredMbps, MaxViolations: maxViolations,
	})
	bulk := stream.New(1, stream.Spec{Name: "bulk"})
	var w sources
	w.add(vb, stream.NewRateSource(net, vb, requiredMbps))
	w.add(bulk, stream.NewBacklogSource(net, bulk, 4000))

	quota := vb.RequiredPacketsPerWindow(cfg.TwSec)
	tickSec := net.TickSeconds()
	warmupTicks := int64(cfg.WarmupSec / tickSec)
	windowTicks := int64(cfg.TwSec / tickSec)
	rejected := false
	var perWindow []float64
	delivered := 0
	c := cfg
	c.Algorithm = AlgPGOS
	res, err := run(c, net, fig8Paths(tb), w, hooks{
		// Built by hand: the remap trace's committed bit is stream 0's own
		// admission, where the registry's adapter reports whether any stream
		// (the best-effort bulk one included) was committed.
		build: func(bc sched.BuildConfig) (sched.Scheduler, error) {
			return pgos.New(pgos.Config{
				TwSec:       bc.TwSec,
				TickSeconds: bc.TickSeconds,
				PaceLimit:   bc.PaceLimit,
				OnReject:    func(*stream.Stream) { rejected = true },
				Telemetry:   bc.Telemetry,
				OnRemap: func(m pgos.Mapping, latencySec float64) {
					bc.OnRemap(latencySec, len(m.Rejected) > 0 && !m.Rejected[0])
				},
			}, bc.Streams, bc.Paths, bc.Monitors), nil
		},
		onDeliver: func(_ int, pkt *simnet.Packet, _ int64) {
			if pkt.Stream == 0 {
				delivered++
			}
		},
		// An independent per-window shortfall count, checked against the
		// telemetry accountant's.
		postTick: func(t int64) {
			if (t+1)%windowTicks != 0 {
				return
			}
			if t >= warmupTicks {
				perWindow = append(perWindow, math.Max(float64(quota-delivered), 0))
			}
			delivered = 0
		},
	})
	if err != nil {
		return ViolationBoundResult{}, err
	}
	out := ViolationBoundResult{
		RequiredMbps:  requiredMbps,
		MaxViolations: maxViolations,
		Admitted:      !rejected,
		Telemetry:     res.Telemetry,
	}
	for _, v := range perWindow {
		out.MeanViolations += v
		out.WorstViolations = math.Max(out.WorstViolations, v)
	}
	if len(perWindow) > 0 {
		out.MeanViolations /= float64(len(perWindow))
	}
	return out, nil
}
