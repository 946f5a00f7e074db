// Package experiment regenerates every table and figure of the paper's
// evaluation (§6) on the emulated Fig. 8 testbed: Fig. 4 (bandwidth
// prediction), Figs. 9–11 (SmartPointer under WFQ/MSFQ/PGOS/OptSched), and
// Figs. 12–13 (GridFTP vs IQPG-GridFTP), plus the ablations listed in
// DESIGN.md. Every figure is a row of the registry Figures (figures.go),
// whose run renders the tables that iqbench prints and that the figure's
// golden pins. A simulated figure's row is a Scenario (scenarios.go), one
// sweep axis and a render; Run is the one runner that plays a scenario.
package experiment

import (
	"fmt"

	"iqpaths/internal/faults"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Algorithm names accepted by Run — the canonical registry names from
// internal/sched; any other registered arm works too.
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
	// queues reach steady state (default 60 s).
	WarmupSec float64
	// TwSec is PGOS's scheduling window (default 1 s).
	TwSec float64
	// MeanPrediction runs PGOS with mean-bandwidth predictions instead of
	// percentile predictions (ablation).
	MeanPrediction bool
}

// sampleSec is the throughput sampling interval.
const sampleSec = 1.0

func (c *RunConfig) fillDefaults() {
	if c.DurationSec <= 0 {
		c.DurationSec = 150
	}
	if c.WarmupSec <= 0 {
		c.WarmupSec = 60
	}
	if c.TwSec <= 0 {
		c.TwSec = 1
	}
}

// StreamSeries is one stream's measured behaviour over a run: its label
// ("Atom", "DT1", ...) and utility target (0 for best-effort), then what
// it got.
type StreamSeries struct {
	Name         string
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
	// RemapTimes lists the virtual times (seconds from run start) of PGOS
	// resource-mapping rebuilds; empty for the other schedulers.
	RemapTimes []float64
	// FaultEvents counts fault-injection events applied during the run.
	FaultEvents uint64

	// measured is what a measuring workload measured beyond the runner's
	// accounting; churn is a churn run's control-plane record.
	measured any
	churn    *ChurnRun
}

// workload is one run's application: its streams and the sources that
// feed them, ticked once per emulator tick before the scheduler.
type workload interface {
	Streams() []*stream.Stream
	Tick()
}

// framed is a workload whose stream id delivers frames of framePackets(id)
// packets (0 = not tracked); Run records their completion times.
type framed interface {
	workload
	framePackets(id int) int
}

// measuring is a workload that measures what its figure needs through the
// Harness hooks. The Result keeps measured(), not the workload, which
// holds the testbed.
type measuring interface {
	workload
	measured() any
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

// Run plays scn under cfg — the one runner behind every simulated figure,
// and the only loop that steps a simulated network. It builds the
// topology, the workload, the §4 monitors on every path, the telemetry
// rig, the fault or churn script and the scheduler arm. Every tick, in
// this order, it plays the script, ticks the control plane, starts a
// dispersion train when one is due, ticks the workload and the scheduler,
// steps the network, samples the monitors, accounts each delivery,
// settles the train in flight, closes guarantee windows and throughput
// samples, and calls the workload's hooks.
func Run(cfg RunConfig, scn Scenario) (Result, error) {
	cfg.fillDefaults()
	net, paths := scn.Topology(cfg.Seed)
	h := &Harness{Net: net}
	w := scn.Workload.New(h, cfg)
	streams := w.Streams()

	mons, samplers := pathMonitors(paths)
	var probes *dispersion
	if scn.Dispersion {
		probes = newDispersion(net, paths, mons)
	}
	reg, tracer, acct := newRunTelemetry(net, streams, cfg.TwSec)

	var (
		script *faults.Scenario
		err    error
	)
	if scn.Faults != nil {
		schedule, _ := scn.Faults(cfg)
		if script, err = faults.NewScenario(cfg.Algorithm, net, schedule); err != nil {
			return Result{}, err
		}
		script.SetTelemetry(reg, tracer)
	}

	var remapTimes []float64
	bc := sched.BuildConfig{
		Streams:        streams,
		PaceLimit:      scn.Workload.PaceLimit,
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
	}
	for _, p := range paths {
		bc.Paths = append(bc.Paths, p)
	}
	var cp *controlPlane
	if scn.Churn != "" {
		if cp, err = newControlPlane(scn.Churn, cfg, h, paths, mons, reg, tracer); err != nil {
			return Result{}, err
		}
		bc.Paths, bc.Monitors = cp.ctl.Paths(), cp.ctl.Monitors()
	}
	build := scn.build
	if build == nil {
		build = func(bc sched.BuildConfig) (sched.Scheduler, error) { return sched.Build(cfg.Algorithm, bc) }
	}
	if h.Scheduler, err = build(bc); err != nil {
		return Result{}, fmt.Errorf("experiment: %w", err)
	}

	tickSec := net.TickSeconds()
	warmupTicks := int64(cfg.WarmupSec / tickSec)
	totalTicks := warmupTicks + int64(cfg.DurationSec/tickSec)
	monEvery := max(1, int64(monitorIntervalSec/tickSec))
	windowTicks := max(1, int64(cfg.TwSec/tickSec))
	sampleTicks := int64(sampleSec / tickSec)
	bits := make([][]float64, len(streams))        // [stream][path] this sample
	series := make([][]float64, len(streams))      // total Mbps
	perPath := make([][]([]float64), len(streams)) // [stream][path]Mbps
	frameProgress := make([]map[uint64]int, len(streams))
	frameTimes := make([][]float64, len(streams))
	for i := range streams {
		bits[i] = make([]float64, len(paths))
		perPath[i] = make([][]float64, len(paths))
		frameProgress[i] = make(map[uint64]int)
	}
	frames, _ := w.(framed)
	// deliver accounts a delivered packet: the guarantee accountant, the
	// sample's bits and a completed frame.
	deliver := func(j int, pkt *simnet.Packet, t int64) {
		acct.ObserveDelivery(pkt.Stream, pkt.Bits, pkt.Deadline != 0 && pkt.Delivered > pkt.Deadline)
		bits[pkt.Stream][j] += pkt.Bits
		if frames == nil || pkt.Frame == 0 {
			return
		}
		if n := frames.framePackets(pkt.Stream); n > 0 {
			fp := frameProgress[pkt.Stream]
			if fp[pkt.Frame]++; fp[pkt.Frame] == n {
				delete(fp, pkt.Frame)
				if t >= warmupTicks {
					frameTimes[pkt.Stream] = append(frameTimes[pkt.Stream], float64(t-warmupTicks)*tickSec)
				}
			}
		}
	}

	for t := int64(0); t < totalTicks; t++ {
		if script != nil {
			script.Apply(t)
		}
		if cp != nil {
			cp.ctl.Tick(t) // before the sources it reroutes
		}
		if probes != nil {
			probes.start(t) // trains go out ahead of the tick's traffic
		}
		w.Tick()
		h.Scheduler.Tick(t)
		net.Step()
		if probes == nil && t%monEvery == 0 {
			for _, s := range samplers {
				s.Sample()
			}
		}
		for j, p := range paths {
			for _, pkt := range p.TakeDelivered() {
				if probes != nil && probes.trains[j].Take(pkt) {
					continue
				}
				if pkt.Stream < 0 || pkt.Stream >= len(streams) {
					continue
				}
				deliver(j, pkt, t)
				if h.OnDeliver != nil {
					h.OnDeliver(j, pkt, t)
				}
			}
		}
		if probes != nil {
			probes.settle()
		}
		if (t+1)%windowTicks == 0 {
			if t >= warmupTicks {
				acct.CloseWindow()
			} else {
				acct.DiscardWindow()
			}
		}
		if (t+1)%sampleTicks == 0 {
			for i := range bits {
				if t >= warmupTicks {
					total := 0.0
					for j, b := range bits[i] {
						mbps := b / 1e6 / sampleSec
						perPath[i][j] = append(perPath[i][j], mbps)
						total += mbps
					}
					series[i] = append(series[i], total)
				}
				clear(bits[i])
			}
		}
		if cp != nil && t == warmupTicks {
			cp.probeAdmission()
		}
		if h.PostTick != nil {
			h.PostTick(t)
		}
	}

	res := Result{Algorithm: cfg.Algorithm, SampleSec: sampleSec, RemapTimes: remapTimes}
	if m, ok := w.(measuring); ok {
		res.measured = m.measured()
	}
	if cp != nil {
		res.churn = cp.record()
	}
	for i, s := range streams {
		ss := StreamSeries{Name: s.Name, RequiredMbps: s.RequiredMbps, Total: series[i],
			PerPath: map[string][]float64{}, FrameTimes: frameTimes[i], Summary: stats.Summarize(series[i])}
		for j, p := range paths {
			ss.PerPath[p.Name()] = perPath[i][j]
		}
		res.Streams = append(res.Streams, ss)
	}
	if p, ok := h.Scheduler.(*pgos.Scheduler); ok {
		st := p.Stats()
		res.PGOSStats = &st
		for i, rej := range p.Mapping().Rejected {
			if rej && i < len(streams) {
				res.Rejected = append(res.Rejected, streams[i].Name)
			}
		}
	}
	res.Telemetry = telemetry.BuildSnapshot(net, reg, acct, tracer)
	if script != nil {
		res.FaultEvents = script.Applied()
	}
	return res, nil
}

// An axis lists a simulated figure's runs: each point adjusts the pass's
// run configuration and the figure's scenario for one run.
type (
	axis  func(Params) ([]point, error)
	point func(*RunConfig, *Scenario)
)

// over is the axis of values, each point applying its value with set.
func over[V any](values []V, set func(*RunConfig, *Scenario, V)) axis {
	return func(Params) ([]point, error) {
		pts := make([]point, len(values))
		for i, v := range values {
			pts[i] = func(c *RunConfig, s *Scenario) { set(c, s, v) }
		}
		return pts, nil
	}
}

// arms is the axis of scheduler arms (Alg* names).
func arms(names ...string) axis {
	return over(names, func(c *RunConfig, _ *Scenario, arm string) { c.Algorithm = arm })
}

// runAxis runs scn once per point of ax, each from p.Run, in order.
func runAxis(p Params, scn Scenario, ax axis) ([]Result, error) {
	pts, err := ax(p)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(pts))
	for i, pt := range pts {
		c, s := p.Run, scn
		pt(&c, &s)
		res, err := Run(c, s)
		if err != nil {
			return nil, fmt.Errorf("experiment: run %d (%s, seed %d): %w", i, c.Algorithm, c.Seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// simulated is the Run of a figure row: scn run once per point of ax,
// rendered by render.
func simulated(scn Scenario, ax axis, render func(Params, []Result) []Table) func(Params) ([]Table, error) {
	return func(p Params) ([]Table, error) {
		results, err := runAxis(p, scn, ax)
		if err != nil {
			return nil, err
		}
		return render(p, results), nil
	}
}
