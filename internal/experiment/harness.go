package experiment

import (
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// monitorIntervalSec is the always-on statistical monitoring cadence (§4):
// every path's bandwidth distribution is sampled at 0.1 s.
const monitorIntervalSec = 0.1

// Harness is what a scenario's workload sees of its run: the testbed, the
// scheduler once Run has built it, and the one hook layer through which a
// workload measures what its figure needs. Run calls OnDeliver with every
// delivered packet of the run's streams and PostTick at the end of every
// tick, each after its own accounting; both are optional.
type Harness struct {
	Net       *simnet.Network
	Scheduler sched.Scheduler
	OnDeliver func(path int, pkt *simnet.Packet, t int64)
	PostTick  func(t int64)
}

// pathMonitors builds the §4 monitoring rig over the given paths: a
// 500-sample window with 100-sample warmup per path, fed every 0.1 s by a
// Sampler reading the path's available bandwidth.
func pathMonitors(paths []*simnet.Path) ([]*monitor.PathMonitor, []*monitor.Sampler) {
	mons := make([]*monitor.PathMonitor, len(paths))
	samplers := make([]*monitor.Sampler, len(paths))
	for j, sp := range paths {
		mons[j] = monitor.New(sp.Name(), 500, 100)
		samplers[j] = monitor.NewSampler(sp, mons[j])
	}
	return mons, samplers
}

// dispersionEverySec is the dispersion probing cadence: one train per
// path every 5 s.
const dispersionEverySec = 5

// dispersion paces Run's dispersion trains: a round every
// dispersionEverySec, one path at a time — the next path's train starts
// in the tick after the previous one settles.
type dispersion struct {
	trains []*monitor.Train
	every  int64
	cur    int // the path whose train is due or in flight; len(trains) between rounds
}

func newDispersion(net *simnet.Network, paths []*simnet.Path, mons []*monitor.PathMonitor) *dispersion {
	d := &dispersion{every: int64(dispersionEverySec / net.TickSeconds()), cur: len(paths)}
	for j, p := range paths {
		d.trains = append(d.trains, monitor.NewTrain(net, p, mons[j]))
	}
	return d
}

// start opens a round on the cadence and starts the train due, passing
// over a path whose train cannot start.
func (d *dispersion) start(t int64) {
	if d.cur == len(d.trains) {
		if t == 0 || t%d.every != 0 {
			return
		}
		d.cur = 0
	}
	for d.cur < len(d.trains) && !d.trains[d.cur].Active() && !d.trains[d.cur].Start() {
		d.cur++
	}
}

// settle moves on to the next path once the train in flight settles.
func (d *dispersion) settle() {
	if d.cur < len(d.trains) && d.trains[d.cur].Settle() {
		d.cur++
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
		slos[i] = telemetry.StreamSLO{Name: s.Name, Kind: s.Kind.String(), RequiredMbps: s.RequiredMbps,
			Probability: s.Probability, MaxViolations: s.MaxViolations, PacketBits: s.PacketBits}
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
