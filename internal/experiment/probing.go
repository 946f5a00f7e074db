package experiment

import (
	"fmt"

	"iqpaths/internal/emulab"
	"iqpaths/internal/monitor"
	"iqpaths/internal/pathload"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/smartpointer"
	"iqpaths/internal/stats"
)

// ProbingRow compares PGOS driven by oracle bandwidth samples against
// PGOS driven by live packet-train dispersion measurements.
type ProbingRow struct {
	Mode      string // "oracle" or "probing"
	Stream    string
	Mean      float64
	Sustained float64 // 95 %-of-time level
	StdDev    float64
}

// ProbingAblation answers "do the guarantees survive real measurement?":
// the oracle mode samples each path's true available bandwidth every
// 0.1 s (as the main experiments do); the probing mode instead measures
// each path every 5 s with a pathload-style dispersion train — paying the
// probe traffic and the measurement error — and feeds those estimates to
// the same monitors. Probes consume path capacity, so some throughput
// cost is expected; the guarantee shape must hold regardless.
func ProbingAblation(cfg RunConfig) ([]ProbingRow, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 140
	}
	var rows []ProbingRow
	for _, probing := range []bool{false, true} {
		tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
		net := tb.Net
		w := smartpointer.New(net)
		streams := w.Streams()
		paths := []*simnet.Path{tb.PathA, tb.PathB}
		mons := []*monitor.PathMonitor{
			monitor.New("A", 500, 60), monitor.New("B", 500, 60),
		}
		scheduler, err := sched.Build(AlgPGOS, sched.BuildConfig{
			Streams: streams, Paths: []sched.PathService{tb.PathA, tb.PathB},
			PaceLimit: cfg.PaceLimit, TickSeconds: net.TickSeconds(),
			TwSec: cfg.TwSec, Monitors: mons,
		})
		if err != nil {
			return nil, err
		}

		acc := map[int]float64{}
		series := map[int][]float64{}
		account := func(streamID int, bits float64) {
			if streamID >= 0 && streamID < len(streams) {
				acc[streamID] += bits
			}
		}
		collect := func() {
			for _, pw := range paths {
				for _, pkt := range pw.TakeDelivered() {
					account(pkt.Stream, pkt.Bits)
				}
			}
		}

		ests := make([]*pathload.Estimator, len(paths))
		for j, pw := range paths {
			ests[j] = pathload.New(net, pw, pathload.Config{})
			ests[j].Deliver = func(pkt *simnet.Packet) { account(pkt.Stream, pkt.Bits) }
		}

		tickSec := net.TickSeconds()
		warmupTicks := int64(cfg.WarmupSec / tickSec)
		totalTicks := warmupTicks + int64(cfg.DurationSec/tickSec)
		sampleTicks := int64(cfg.SampleSec / tickSec)
		probeEvery := int64(5 / tickSec) // 5 s cadence per path
		lastSample := int64(0)

		appTick := func(t int64) {
			w.Tick()
			scheduler.Tick(t)
		}
		flushSample := func(t int64) {
			for t-lastSample >= sampleTicks {
				lastSample += sampleTicks
				for i := range streams {
					if lastSample > warmupTicks {
						series[i] = append(series[i], acc[i]/1e6/cfg.SampleSec)
					}
					acc[i] = 0
				}
			}
		}

		for net.Tick() < totalTicks {
			t := net.Tick()
			if probing && t > 0 && t%probeEvery == 0 {
				for j := range paths {
					est := ests[j].Estimate(func(tick int64) {
						appTick(tick)
						// Drain the path not being probed.
						for _, pkt := range paths[1-j].TakeDelivered() {
							account(pkt.Stream, pkt.Bits)
						}
						flushSample(tick)
					})
					if est > 0 {
						mons[j].ObserveBandwidth(est)
					}
				}
				continue
			}
			appTick(t)
			net.Step()
			collect()
			if !probing && t%10 == 0 {
				mons[0].ObserveBandwidth(tb.PathA.AvailMbps())
				mons[1].ObserveBandwidth(tb.PathB.AvailMbps())
			}
			flushSample(net.Tick())
		}

		mode := "oracle"
		if probing {
			mode = "probing"
		}
		for _, i := range []int{0, 1} {
			sum := stats.Summarize(series[i])
			rows = append(rows, ProbingRow{
				Mode:      mode,
				Stream:    streams[i].Name,
				Mean:      sum.Mean,
				Sustained: sum.SustainedAt(0.95),
				StdDev:    sum.StdDev,
			})
		}
	}
	return rows, nil
}

// RenderProbing renders the probing-ablation rows.
func RenderProbing(rows []ProbingRow) Table {
	header := []string{"mode", "stream", "mean", "sustained_95pct", "stddev"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mode, r.Stream,
			fmt.Sprintf("%.3f", r.Mean),
			fmt.Sprintf("%.3f", r.Sustained),
			fmt.Sprintf("%.4f", r.StdDev),
		})
	}
	return Table{Header: header, Rows: out}
}
