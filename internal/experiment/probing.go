package experiment

import (
	"fmt"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pathload"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/smartpointer"
	"iqpaths/internal/stats"
)

// probingAblation answers "do the guarantees survive real measurement?":
// the oracle mode samples each path's true available bandwidth every
// 0.1 s (as the main experiments do); the probing mode instead measures
// each path every 5 s with a pathload-style dispersion train — paying the
// probe traffic and the measurement error — and feeds those estimates to
// the same monitors. Probes consume path capacity, so some throughput
// cost is expected; the guarantee shape must hold regardless. Each row
// reports a critical stream's mean, 95 %-of-time level and σ under one
// mode.
func probingAblation(cfg RunConfig) (Table, error) {
	cfg.fillDefaults()
	t := Table{Header: []string{"mode", "stream", "mean", "sustained_95pct", "stddev"}}
	for _, probing := range []bool{false, true} {
		net, paths := SmartPointer.Topology(cfg.Seed)
		w := smartpointer.New(net)
		streams := w.Streams()
		mons := []*monitor.PathMonitor{
			monitor.New("A", 500, 60), monitor.New("B", 500, 60),
		}
		scheduler, err := sched.Build(AlgPGOS, sched.BuildConfig{
			Streams: streams, Paths: []sched.PathService{paths[0], paths[1]},
			PaceLimit: SmartPointer.Workload.PaceLimit, TickSeconds: net.TickSeconds(),
			TwSec: cfg.TwSec, Monitors: mons,
		})
		if err != nil {
			return Table{}, err
		}

		acc := map[int]float64{}
		series := map[int][]float64{}
		account := func(pkt *simnet.Packet) {
			if pkt.Stream >= 0 && pkt.Stream < len(streams) {
				acc[pkt.Stream] += pkt.Bits
			}
		}

		ests := make([]*pathload.Estimator, len(paths))
		for j, pw := range paths {
			ests[j] = pathload.New(net, pw)
			ests[j].Deliver = account
		}

		tickSec := net.TickSeconds()
		warmupTicks := int64(cfg.WarmupSec / tickSec)
		totalTicks := warmupTicks + int64(cfg.DurationSec/tickSec)
		sampleTicks := int64(sampleSec / tickSec)
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
						series[i] = append(series[i], acc[i]/1e6/sampleSec)
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
							account(pkt)
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
			for _, pw := range paths {
				for _, pkt := range pw.TakeDelivered() {
					account(pkt)
				}
			}
			if !probing && t%10 == 0 {
				mons[0].ObserveBandwidth(paths[0].AvailMbps())
				mons[1].ObserveBandwidth(paths[1].AvailMbps())
			}
			flushSample(net.Tick())
		}

		mode := map[bool]string{false: "oracle", true: "probing"}[probing]
		for _, i := range []int{0, 1} {
			sum := stats.Summarize(series[i])
			t.Rows = append(t.Rows, []string{
				mode, streams[i].Name, fmt.Sprintf("%.3f", sum.Mean),
				fmt.Sprintf("%.3f", sum.SustainedAt(0.95)), fmt.Sprintf("%.4f", sum.StdDev),
			})
		}
	}
	return t, nil
}
