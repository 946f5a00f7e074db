package experiment

import (
	"fmt"

	"iqpaths/internal/faults"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// monitorIntervalSec is the always-on statistical monitoring cadence (§4):
// every path's bandwidth distribution is sampled at 0.1 s.
const monitorIntervalSec = 0.1

// Harness is the testbed measurement loop: play the fault script, tick the
// workload, tick the scheduler, step the network, sample the monitors,
// drain deliveries, and close guarantee windows — in exactly that order,
// every tick. run drives every simulated figure through it; RunChurn,
// whose paths come from the control plane, drives it directly. Results
// are byte-identical to the bespoke loops it replaced (the figure goldens
// pin this).
//
// All hook fields are optional; a nil hook costs nothing.
type Harness struct {
	// Net is the emulator under test (required).
	Net *simnet.Network
	// Scheduler is ticked once per emulator tick (required).
	Scheduler sched.Scheduler
	// Paths are drained of delivered packets every tick, in order, into
	// OnDeliver.
	Paths []*simnet.Path
	// Samplers are sampled every monitorIntervalSec of virtual time — the
	// only monitor feed the loop has.
	Samplers []*monitor.Sampler
	// Scenario, when set, plays its fault script at the top of each tick.
	Scenario *faults.Scenario
	// Accountant, when set, has a guarantee window closed every TwSec —
	// discarded during warmup, counted during measurement.
	Accountant *telemetry.Accountant

	// WarmupSec runs before measurement starts; DurationSec is measured.
	WarmupSec, DurationSec float64
	// TwSec is the guarantee/scheduling window (default 1 s).
	TwSec float64

	// PreTick runs at the top of the tick, after the fault script and
	// before the scheduler — workload sources and control planes go here.
	PreTick func(t int64)
	// OnDeliver receives every delivered packet with its path index.
	OnDeliver func(path int, pkt *simnet.Packet, t int64)
	// PostTick runs at the end of the tick, after window accounting —
	// per-sample series accumulation and scripted probes go here.
	PostTick func(t int64)
}

// WarmupTicks returns the warmup length in emulator ticks.
func (h *Harness) WarmupTicks() int64 {
	return int64(h.WarmupSec / h.Net.TickSeconds())
}

// Run executes the loop over warmup plus measurement.
func (h *Harness) Run() error {
	if h.Net == nil || h.Scheduler == nil {
		return fmt.Errorf("experiment: harness needs Net and Scheduler")
	}
	tickSec := h.Net.TickSeconds()
	twSec := h.TwSec
	if twSec <= 0 {
		twSec = 1
	}
	warmupTicks := h.WarmupTicks()
	totalTicks := warmupTicks + int64(h.DurationSec/tickSec)
	monEvery := int64(monitorIntervalSec / tickSec)
	if monEvery < 1 {
		monEvery = 1
	}
	windowTicks := int64(twSec / tickSec)
	if windowTicks < 1 {
		windowTicks = 1
	}

	for t := int64(0); t < totalTicks; t++ {
		if h.Scenario != nil {
			h.Scenario.Apply(t)
		}
		if h.PreTick != nil {
			h.PreTick(t)
		}
		h.Scheduler.Tick(t)
		h.Net.Step()
		if t%monEvery == 0 {
			for _, s := range h.Samplers {
				s.Sample()
			}
		}
		if h.OnDeliver != nil {
			for j, p := range h.Paths {
				for _, pkt := range p.TakeDelivered() {
					h.OnDeliver(j, pkt, t)
				}
			}
		}
		if h.Accountant != nil && (t+1)%windowTicks == 0 {
			if t >= warmupTicks {
				h.Accountant.CloseWindow()
			} else {
				h.Accountant.DiscardWindow()
			}
		}
		if h.PostTick != nil {
			h.PostTick(t)
		}
	}
	return nil
}

// pathMonitors builds the standard §4 monitoring rig over the given paths:
// a 500-sample window with 100-sample warmup per path, fed by a Sampler
// reading the path's available bandwidth.
func pathMonitors(paths []*simnet.Path) ([]*monitor.PathMonitor, []*monitor.Sampler) {
	mons := make([]*monitor.PathMonitor, len(paths))
	samplers := make([]*monitor.Sampler, len(paths))
	for j, sp := range paths {
		mons[j] = monitor.New(sp.Name(), 500, 100)
		samplers[j] = monitor.NewSampler(sp, mons[j])
	}
	return mons, samplers
}

// accountDeliveries returns the standard delivery hook: a packet of one
// of the run's nStreams streams feeds a sparse RTT sample (every 64th
// packet, twice the one-way delay as the round-trip proxy) into its path's
// monitor and a delivery into the guarantee accountant, then reaches next
// (nil = nothing more).
func accountDeliveries(mons []*monitor.PathMonitor, acct *telemetry.Accountant, nStreams int, tickSec float64,
	next func(path int, pkt *simnet.Packet, t int64)) func(int, *simnet.Packet, int64) {
	return func(j int, pkt *simnet.Packet, t int64) {
		if pkt.Stream < 0 || pkt.Stream >= nStreams {
			return
		}
		if pkt.ID%64 == 0 {
			mons[j].ObserveRTT(2 * float64(pkt.Delivered-pkt.Created) * tickSec)
		}
		missed := pkt.Deadline != 0 && pkt.Delivered > pkt.Deadline
		acct.ObserveDelivery(pkt.Stream, pkt.Bits, missed)
		if next != nil {
			next(j, pkt, t)
		}
	}
}

// newRunTelemetry builds the per-run telemetry rig: an isolated registry,
// an event tracer on the emulator's clock, and a guarantee accountant
// holding each stream's contract.
func newRunTelemetry(net *simnet.Network, streams []*stream.Stream, twSec float64) (*telemetry.Registry, *telemetry.Tracer, *telemetry.Accountant) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(net, 4096)
	net.SetTelemetry(reg)
	slos := make([]telemetry.StreamSLO, len(streams))
	for i, s := range streams {
		slos[i] = telemetry.StreamSLO{
			Name:          s.Name,
			Kind:          s.Kind.String(),
			RequiredMbps:  s.RequiredMbps,
			Probability:   s.Probability,
			MaxViolations: s.MaxViolations,
			PacketBits:    s.PacketBits,
		}
		if s.Kind != stream.BestEffort {
			slos[i].QuotaPackets = s.RequiredPacketsPerWindow(twSec)
		}
	}
	return reg, tracer, telemetry.NewAccountant(net, reg, tracer, twSec, slos)
}

// availOracle returns the ground-truth available-bandwidth lookup OptSched
// schedules against, resolving path IDs over the given paths (unknown IDs
// fall back to the last path, preserving the historical two-path lookup).
func availOracle(paths []*simnet.Path) func(pathID int) float64 {
	return func(id int) float64 {
		for _, p := range paths[:len(paths)-1] {
			if p.ID() == id {
				return p.AvailMbps()
			}
		}
		return paths[len(paths)-1].AvailMbps()
	}
}
