package experiment

import (
	"iqpaths/internal/emulab"
	"iqpaths/internal/faults"
	"iqpaths/internal/gridftp"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/smartpointer"
	"iqpaths/internal/stream"
)

// Scenario is one simulated testbed run as a value: a topology, a
// workload on it, optionally a fault or control-plane churn script, and
// how the monitors are fed.
// The run adds the arm, seed and durations (RunConfig).
type Scenario struct {
	Topology Topology
	Workload Workload
	// Faults, when set, scripts link faults for the run's warmup and
	// duration, in ticks from the start of the run, alike under every arm.
	Faults func(RunConfig) (faults.Schedule, FaultTimeline)
	// Churn, when "static" or "control", routes the run over the control
	// plane under churn.go's script, frozen or rerouting.
	Churn string
	// Dispersion, when set, feeds the monitors with dispersion trains
	// (monitor.Train) instead of the 0.1 s oracle samplers: every 5 s one
	// train per path, one path at a time.
	Dispersion bool
	// build, when set, replaces the registry arm RunConfig.Algorithm names.
	build sched.Builder
}

// Topology builds a scenario's testbed from the run's seed: the emulator
// and the overlay paths the scheduler may use.
type Topology func(seed int64) (*simnet.Network, []*simnet.Path)

// Workload is the application a scenario runs.
type Workload struct {
	// PaceLimit bounds each path's queued packets under every arm.
	PaceLimit int
	// New puts the streams and sources on h.Net for the run cfg. It may
	// set h's hooks to measure what its figure needs.
	New func(h *Harness, cfg RunConfig) workload
}

// The per-path pace limits: an interactive application's buffers are deep
// enough to keep both pipes full at peak bandwidth (in-transit occupancy
// is ~2 ticks × rate) and shallow enough to keep queueing delay — and
// with it frame jitter — low; a bulk transfer's are deeper, utilization
// over latency, as a striped file mover configures its sockets.
const (
	interactivePace = 140
	bulkPace        = 170
)

// fig8 is the paper's Fig. 8 testbed with its two overlay paths.
func fig8(seed int64) (*simnet.Network, []*simnet.Path) {
	tb := emulab.Build(emulab.Config{Seed: seed})
	return tb.Net, []*simnet.Path{tb.PathA, tb.PathB}
}

// fig8PathA is the Fig. 8 testbed with path A alone, so multi-path rescue
// (precedence rule 2) cannot help.
func fig8PathA(seed int64) (*simnet.Network, []*simnet.Path) {
	net, paths := fig8(seed)
	return net, paths[:1]
}

// multiPath is the n-branch generalization of the Fig. 8 testbed.
func multiPath(n int) Topology {
	return func(seed int64) (*simnet.Network, []*simnet.Path) {
		mp := emulab.BuildN(emulab.Config{Seed: seed}, n)
		return mp.Net, mp.Paths
	}
}

var (
	// SmartPointer is the §6.1 scenario: the three SmartPointer streams
	// over the Fig. 8 testbed, an interactive application.
	SmartPointer = Scenario{Topology: fig8, Workload: Workload{PaceLimit: interactivePace,
		New: func(h *Harness, _ RunConfig) workload { return atomFrames{smartpointer.New(h.Net)} }}}
	// GridFTP is the §6.2 scenario: the DT1/DT2/DT3 record transfer over
	// the Fig. 8 testbed, a bulk transfer. Arm AlgBlocked is stock GridFTP
	// (blocked layout, no guarantees); AlgPGOS is IQPG-GridFTP, whose
	// streams carry the guarantees.
	GridFTP = Scenario{Topology: fig8, Workload: Workload{PaceLimit: bulkPace,
		New: func(h *Harness, cfg RunConfig) workload { return gridftp.NewWorkload(h.Net, cfg.Algorithm == AlgPGOS) }}}
)

// atomFrames is the SmartPointer workload with Atom's frames tracked:
// they drive the §6.1 jitter number.
type atomFrames struct{ *smartpointer.Workload }

func (w atomFrames) framePackets(id int) int {
	if id == 0 {
		return w.PacketsPerFrame(0)
	}
	return 0
}

// askWithBulk puts spec's stream (ID 0), offered at its required rate,
// beside a backlogged best-effort bulk stream (ID 1).
func askWithBulk(net *simnet.Network, spec stream.Spec) sources {
	st := stream.New(0, spec)
	bulk := stream.New(1, stream.Spec{Name: "bulk"})
	var w sources
	w.add(st, stream.NewRateSource(net, st, spec.RequiredMbps))
	w.add(bulk, stream.NewBacklogSource(net, bulk, 4000))
	return w
}
