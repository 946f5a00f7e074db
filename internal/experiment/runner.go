// Package experiment regenerates every table and figure of the paper's
// evaluation (§6) on the emulated Fig. 8 testbed: Fig. 4 (bandwidth
// prediction), Figs. 9–11 (SmartPointer under WFQ/MSFQ/PGOS/OptSched), and
// Figs. 12–13 (GridFTP vs IQPG-GridFTP), plus the ablations listed in
// DESIGN.md. Each driver returns plain data that render.go turns into the
// rows/series the paper reports.
package experiment

import (
	"fmt"

	"iqpaths/internal/emulab"
	"iqpaths/internal/faults"
	"iqpaths/internal/gridftp"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/smartpointer"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Algorithm names accepted by the runners — the canonical registry names
// from internal/sched; any other registered arm works too.
const (
	AlgWFQ         = sched.NameWFQ
	AlgMSFQ        = sched.NameMSFQ
	AlgPGOS        = sched.NamePGOS
	AlgOptSched    = sched.NameOptSched
	AlgBlocked     = sched.NameBlocked     // stock GridFTP blocked layout
	AlgPartitioned = sched.NamePartitioned // GridFTP partitioned layout
	// AlgBackpressure is the max-weight throughput-optimal baseline
	// (Rai–Singh–Modiano): wins on aggregate Mbps, blind to guarantees.
	AlgBackpressure = sched.NameBackpressure
)

// RunConfig parameterizes one testbed run.
type RunConfig struct {
	// Algorithm selects the scheduler (Alg* constants).
	Algorithm string
	// Seed drives the testbed's cross traffic and loss draws.
	Seed int64
	// DurationSec is the measured portion of the run (default 150 s, the
	// paper's Fig. 9c/d x-axis).
	DurationSec float64
	// WarmupSec runs before measurement starts so monitors fill and
	// queues reach steady state (default 60 s). A zero or negative value
	// means "use the default"; set NoWarmup for a genuine zero-warmup run.
	WarmupSec float64
	// NoWarmup starts measurement at tick zero regardless of WarmupSec —
	// the fast path for matrix smoke cells and short CI runs, where the
	// 60 s default would dominate the run.
	NoWarmup bool
	// SampleSec is the throughput sampling interval (default 1 s).
	SampleSec float64
	// TwSec is PGOS's scheduling window (default 1 s).
	TwSec float64
	// MeanPrediction runs PGOS with mean-bandwidth predictions instead of
	// percentile predictions (ablation).
	MeanPrediction bool
	// PaceLimit overrides the per-path queued-packet bound (0 = default).
	PaceLimit int
	// FaultSchedule, when non-empty, is played against the testbed by a
	// faults.Scenario: event ticks count from the start of the run
	// (warmup included), so a schedule is one fixed script across
	// algorithms and seeds.
	FaultSchedule faults.Schedule
}

func (c *RunConfig) fillDefaults() {
	if c.DurationSec <= 0 {
		c.DurationSec = 150
	}
	if c.NoWarmup {
		c.WarmupSec = 0
	} else if c.WarmupSec <= 0 {
		c.WarmupSec = 60
	}
	if c.SampleSec <= 0 {
		c.SampleSec = 1
	}
	if c.TwSec <= 0 {
		c.TwSec = 1
	}
}

// StreamSeries is one stream's measured behaviour over a run.
type StreamSeries struct {
	// Name is the stream label ("Atom", "DT1", ...).
	Name string
	// RequiredMbps is the utility target (0 for best-effort).
	RequiredMbps float64
	// Total is the delivered throughput in Mbps per sample interval.
	Total []float64
	// PerPath splits Total by path name ("PathA", "PathB").
	PerPath map[string][]float64
	// FrameTimes are the completion times (seconds from measurement
	// start) of fully delivered application frames, for jitter.
	FrameTimes []float64
	// Summary condenses Total.
	Summary stats.Summary
}

// JitterSec returns the stream's frame jitter (mean absolute deviation of
// inter-completion gaps) in seconds.
func (s *StreamSeries) JitterSec() float64 { return stats.Jitter(s.FrameTimes) }

// Result is one run's output.
type Result struct {
	Algorithm string
	SampleSec float64
	Streams   []StreamSeries
	// PGOSStats is populated for PGOS runs.
	PGOSStats *pgos.Stats
	// Rejected lists streams PGOS admission control refused (the upcall);
	// they were served best-effort.
	Rejected []string
	// Telemetry is the end-of-run snapshot: every metric the emulator and
	// scheduler recorded, per-stream guarantee accounts (virtual-time
	// windows, PGOS shortfall semantics), and the retained event trace.
	Telemetry *telemetry.Snapshot
	// Accounts is the per-stream realised-guarantee record (same data the
	// snapshot carries, exposed directly for programmatic consumers).
	Accounts []telemetry.StreamAccount
	// RemapTimes lists the virtual times (seconds from run start, warmup
	// included) of PGOS resource-mapping rebuilds; empty for the other
	// schedulers.
	RemapTimes []float64
	// FaultEvents counts fault-injection events applied during the run.
	FaultEvents uint64
}

// workload is the application a testbed run schedules: its streams and
// the sources that feed them, ticked once per emulator tick.
type workload interface {
	Streams() []*stream.Stream
	Tick()
}

// sources is a workload of streams fed by sources ticked in order.
type sources struct {
	streams []*stream.Stream
	feeds   []interface{ Tick() }
}

func (w *sources) add(st *stream.Stream, feed interface{ Tick() }) {
	w.streams = append(w.streams, st)
	w.feeds = append(w.feeds, feed)
}

func (w sources) Streams() []*stream.Stream { return w.streams }

func (w sources) Tick() {
	for _, f := range w.feeds {
		f.Tick()
	}
}

// hooks are one figure's additions to the shared testbed run. All are
// optional.
type hooks struct {
	// framePackets maps a stream ID to its packets per application frame;
	// streams with a positive count get frame completion times (jitter).
	framePackets func(streamID int) int
	// build replaces sched.Build(cfg.Algorithm, ·), for a figure that
	// needs a handle on its scheduler or wires one by hand.
	build func(sched.BuildConfig) (sched.Scheduler, error)
	// onDeliver sees each delivered packet after the standard accounting.
	onDeliver func(path int, pkt *simnet.Packet, t int64)
	// postTick runs at the end of every tick.
	postTick func(t int64)
}

// fig8Paths returns the Fig. 8 testbed's two overlay paths.
func fig8Paths(tb *emulab.Testbed) []*simnet.Path {
	return []*simnet.Path{tb.PathA, tb.PathB}
}

// RunSmartPointer executes one §6.1 run: the three SmartPointer streams
// over the Fig. 8 testbed under the chosen algorithm.
func RunSmartPointer(cfg RunConfig) (Result, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		// Interactive application → moderately shallow per-path buffers:
		// deep enough to keep both pipes full at peak bandwidth (in-transit
		// occupancy is ~2 ticks × rate), shallow enough that queueing
		// delay — and with it frame jitter — stays low.
		cfg.PaceLimit = 140
	}
	tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
	w := smartpointer.New(tb.Net)
	return run(cfg, tb.Net, fig8Paths(tb), w, hooks{framePackets: func(id int) int {
		if id == 0 { // Atom frames drive the §6.1 jitter number
			return w.PacketsPerFrame(0)
		}
		return 0
	}})
}

// RunGridFTP executes one §6.2 run: DT1/DT2/DT3 record transfer. Algorithm
// AlgBlocked is stock GridFTP (blocked layout, no guarantees); AlgPGOS is
// IQPG-GridFTP. AlgMSFQ/AlgWFQ/AlgOptSched are accepted for ablations.
func RunGridFTP(cfg RunConfig) (Result, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		// Bulk transfer → deep buffers (~2 ticks): utilization over
		// latency, as a striped file mover configures its sockets.
		cfg.PaceLimit = 170
	}
	tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
	w := gridftp.NewWorkload(tb.Net, cfg.Algorithm == AlgPGOS)
	return run(cfg, tb.Net, fig8Paths(tb), w, hooks{})
}

// run is the one testbed runner every simulated figure shares. Over net it
// builds the §4 monitors on paths, the per-run telemetry rig and the
// cfg.Algorithm scheduler, plays cfg.FaultSchedule, ticks w, and accounts
// every delivery (RTT samples, guarantee windows, per-stream throughput
// series); fig adds what one figure measures beyond that. cfg must have
// its defaults filled.
func run(cfg RunConfig, net *simnet.Network, paths []*simnet.Path, w workload, fig hooks) (Result, error) {
	streams := w.Streams()
	pathServices := make([]sched.PathService, len(paths))
	for j, p := range paths {
		pathServices[j] = p
	}

	// Monitors sample every 0.1 s with a 500-sample window (§4), and the
	// per-run telemetry rig holds each stream's contract.
	mons, samplers := pathMonitors(paths)
	reg, tracer, acct := newRunTelemetry(net, streams, cfg.TwSec)

	// Fault injection: the scripted scenario plays against the testbed's
	// links on the same virtual clock as everything else.
	var scn *faults.Scenario
	if len(cfg.FaultSchedule) > 0 {
		var err error
		scn, err = faults.NewScenario(cfg.Algorithm, net, cfg.FaultSchedule)
		if err != nil {
			return Result{}, err
		}
		scn.SetTelemetry(reg, tracer)
	}

	var remapTimes []float64
	build := fig.build
	if build == nil {
		build = func(bc sched.BuildConfig) (sched.Scheduler, error) { return sched.Build(cfg.Algorithm, bc) }
	}
	scheduler, err := build(sched.BuildConfig{
		Streams:        streams,
		Paths:          pathServices,
		PaceLimit:      cfg.PaceLimit,
		TickSeconds:    net.TickSeconds(),
		TwSec:          cfg.TwSec,
		Monitors:       mons,
		MeanPrediction: cfg.MeanPrediction,
		Telemetry:      reg,
		OnRemap: func(latencySec float64, committed bool) {
			acct.ObserveRemap(latencySec, committed)
			remapTimes = append(remapTimes, net.Now())
		},
		Avail: availOracle(paths),
	})
	if err != nil {
		return Result{}, fmt.Errorf("experiment: %w", err)
	}

	tickSec := net.TickSeconds()
	sampleTicks := int64(cfg.SampleSec / tickSec)
	warmupTicks := int64(cfg.WarmupSec / tickSec)

	nStreams := len(streams)
	// Accumulators for the current sample interval: bits[stream][path].
	acc := make([][]float64, nStreams)
	series := make([][]float64, nStreams)      // total Mbps
	perPath := make([][]([]float64), nStreams) // [stream][path]Mbps
	frameProgress := make([]map[uint64]int, nStreams)
	frameTimes := make([][]float64, nStreams)
	for i := range acc {
		acc[i] = make([]float64, len(paths))
		perPath[i] = make([][]float64, len(paths))
		frameProgress[i] = make(map[uint64]int)
	}

	h := &Harness{
		Net:         net,
		Scheduler:   scheduler,
		Paths:       paths,
		Samplers:    samplers,
		Scenario:    scn,
		Accountant:  acct,
		WarmupSec:   cfg.WarmupSec,
		DurationSec: cfg.DurationSec,
		TwSec:       cfg.TwSec,
		PreTick:     func(int64) { w.Tick() },
		OnDeliver: accountDeliveries(mons, acct, nStreams, tickSec, func(j int, pkt *simnet.Packet, t int64) {
			acc[pkt.Stream][j] += pkt.Bits
			if fig.framePackets != nil && pkt.Frame != 0 {
				if n := fig.framePackets(pkt.Stream); n > 0 {
					fp := frameProgress[pkt.Stream]
					fp[pkt.Frame]++
					if fp[pkt.Frame] == n {
						delete(fp, pkt.Frame)
						if t >= warmupTicks {
							frameTimes[pkt.Stream] = append(frameTimes[pkt.Stream],
								float64(t-warmupTicks)*tickSec)
						}
					}
				}
			}
			if fig.onDeliver != nil {
				fig.onDeliver(j, pkt, t)
			}
		}),
		PostTick: func(t int64) {
			if (t+1)%sampleTicks == 0 {
				for i := range acc {
					if t >= warmupTicks {
						total := 0.0
						for j := range acc[i] {
							mbps := acc[i][j] / 1e6 / cfg.SampleSec
							perPath[i][j] = append(perPath[i][j], mbps)
							total += mbps
						}
						series[i] = append(series[i], total)
					}
					for j := range acc[i] {
						acc[i][j] = 0
					}
				}
			}
			if fig.postTick != nil {
				fig.postTick(t)
			}
		},
	}
	if err := h.Run(); err != nil {
		return Result{}, err
	}

	res := Result{Algorithm: cfg.Algorithm, SampleSec: cfg.SampleSec}
	for i, s := range streams {
		ss := StreamSeries{
			Name:         s.Name,
			RequiredMbps: s.RequiredMbps,
			Total:        series[i],
			PerPath:      map[string][]float64{},
			FrameTimes:   frameTimes[i],
			Summary:      stats.Summarize(series[i]),
		}
		for j, p := range paths {
			ss.PerPath[p.Name()] = perPath[i][j]
		}
		res.Streams = append(res.Streams, ss)
	}
	if p, ok := scheduler.(*pgos.Scheduler); ok {
		st := p.Stats()
		res.PGOSStats = &st
		for i, rej := range p.Mapping().Rejected {
			if rej && i < len(streams) {
				res.Rejected = append(res.Rejected, streams[i].Name)
			}
		}
	}
	res.Telemetry = telemetry.BuildSnapshot(net, reg, acct, tracer)
	res.Accounts = acct.Accounts()
	res.RemapTimes = remapTimes
	if scn != nil {
		res.FaultEvents = scn.Applied()
	}
	return res, nil
}

// runLossy is a test hook: the SmartPointer run with per-link loss.
func runLossy(cfg RunConfig, lossProb float64) (Result, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 140
	}
	cfg.Algorithm = AlgPGOS
	tb := emulab.Build(emulab.Config{Seed: cfg.Seed, LossProb: lossProb})
	return run(cfg, tb.Net, fig8Paths(tb), smartpointer.New(tb.Net), hooks{})
}
