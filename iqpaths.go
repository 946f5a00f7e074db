// Package iqpaths is a Go implementation of IQ-Paths (Cai, Kumar, Schwan —
// HPDC 2006): middleware for predictably high-performance data streams
// across dynamic network overlays.
//
// IQ-Paths continuously measures each overlay path's available bandwidth,
// maintains its empirical distribution (not just its mean), and schedules
// application streams across single or concurrent paths with the PGOS
// algorithm so that each stream's utility specification — "b Mbps with
// probability P", or "at most E[Z] deadline misses per window" — holds
// despite best-effort networks.
//
// # Quick start
//
//	tb := iqpaths.BuildTestbed(iqpaths.TestbedConfig{Seed: 1})
//	critical := iqpaths.NewStream(0, iqpaths.StreamSpec{
//		Name: "control", Kind: iqpaths.Probabilistic,
//		RequiredMbps: 5, Probability: 0.99,
//	})
//	bulk := iqpaths.NewStream(1, iqpaths.StreamSpec{Name: "bulk"})
//	...wire monitors and a PGOS scheduler; see examples/quickstart.
//
// The package is a façade: it re-exports the stable surface of the
// internal packages so downstream users import exactly one path. The
// pieces compose as in the paper's Fig. 3 — monitors feed per-path
// bandwidth CDFs to the PGOS routing/scheduling engine, which drains
// stream queues onto path services (emulated paths from the simnet
// testbed, or live TCP/RUDP connections via the transport adapter).
package iqpaths

import (
	"math/rand"

	"iqpaths/internal/emulab"
	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/trace"
	"iqpaths/internal/transport"
)

// Streams and utility specifications.
type (
	// Stream is a live application stream with a bounded packet backlog.
	Stream = stream.Stream
	// StreamSpec declares a stream's utility requirements.
	StreamSpec = stream.Spec
	// GuaranteeKind selects best-effort, probabilistic, or violation-bound.
	GuaranteeKind = stream.GuaranteeKind
	// FrameSource feeds a stream with fixed-rate application frames.
	FrameSource = stream.FrameSource
	// RateSource feeds a stream at a constant bit rate.
	RateSource = stream.RateSource
	// BacklogSource keeps a stream's queue topped up (elastic transfers).
	BacklogSource = stream.BacklogSource
)

// Guarantee kinds.
const (
	// BestEffort streams take leftover bandwidth.
	BestEffort = stream.BestEffort
	// Probabilistic streams need RequiredMbps with probability P.
	Probabilistic = stream.Probabilistic
	// ViolationBound streams bound expected deadline misses per window.
	ViolationBound = stream.ViolationBound
)

// NewStream creates a stream from a spec (defaults applied).
func NewStream(id int, spec StreamSpec) *Stream { return stream.New(id, spec) }

// NewFrameSource emits frameBytes every 1/fps seconds into st.
func NewFrameSource(net *Network, st *Stream, fps, frameBytes float64) *FrameSource {
	return stream.NewFrameSource(net, st, fps, frameBytes)
}

// NewRateSource emits a constant mbps into st.
func NewRateSource(net *Network, st *Stream, mbps float64) *RateSource {
	return stream.NewRateSource(net, st, mbps)
}

// NewBacklogSource keeps st's queue at depth packets.
func NewBacklogSource(net *Network, st *Stream, depth int) *BacklogSource {
	return stream.NewBacklogSource(net, st, depth)
}

// Emulated networking (the testbed substrate).
type (
	// Network is the virtual-time network emulator.
	Network = simnet.Network
	// Link is one emulated hop.
	Link = simnet.Link
	// LinkConfig configures an emulated link.
	LinkConfig = simnet.LinkConfig
	// Path is an emulated overlay path (implements PathService).
	Path = simnet.Path
	// Packet is the unit moved by schedulers and paths.
	Packet = simnet.Packet
	// Testbed is the paper's Fig. 8 two-path topology.
	Testbed = emulab.Testbed
	// TestbedConfig parameterizes BuildTestbed.
	TestbedConfig = emulab.Config
)

// NewNetwork creates an emulator advancing in ticks of tickSeconds.
func NewNetwork(tickSeconds float64, rng *rand.Rand) *Network {
	return simnet.New(tickSeconds, rng)
}

// BuildTestbed assembles the paper's Fig. 8 testbed with NLANR-like cross
// traffic on both bottlenecks.
func BuildTestbed(cfg TestbedConfig) *Testbed { return emulab.Build(cfg) }

// Monitoring and statistics.
type (
	// PathMonitor tracks one path's available-bandwidth distribution.
	PathMonitor = monitor.PathMonitor
	// Sampler couples an emulated path to a monitor.
	Sampler = monitor.Sampler
	// CDF is an immutable empirical distribution.
	CDF = stats.CDF
	// Summary condenses a throughput series (mean, σ, sustained levels).
	Summary = stats.Summary
)

// NewPathMonitor creates a monitor over a windowN-sample distribution.
func NewPathMonitor(name string, windowN, minWarm int) *PathMonitor {
	return monitor.New(name, windowN, minWarm)
}

// NewSampler wires an emulated path to a monitor.
func NewSampler(p *Path, m *PathMonitor) *Sampler {
	return monitor.NewSampler(p, m)
}

// Summarize condenses a series into the paper's Fig. 11 quantities.
func Summarize(series []float64) Summary { return stats.Summarize(series) }

// Scheduling.
type (
	// Scheduler moves packets from streams to paths each tick.
	Scheduler = sched.Scheduler
	// PathService is the scheduler's view of a path; *Path and
	// *TransportPath implement it.
	PathService = sched.PathService
	// PGOS is the paper's predictive-guarantee scheduler.
	PGOS = pgos.Scheduler
	// PGOSConfig parameterizes a PGOS instance.
	PGOSConfig = pgos.Config
	// Mapping is PGOS's utility-based resource mapping.
	Mapping = pgos.Mapping
)

// SchedulerConfig carries everything any registered scheduler arm may
// need; arms read the fields that apply to them (see internal/sched).
type SchedulerConfig = sched.BuildConfig

// Registry arm names accepted by BuildScheduler.
const (
	ArmWFQ          = sched.NameWFQ
	ArmMSFQ         = sched.NameMSFQ
	ArmPGOS         = sched.NamePGOS
	ArmOptSched     = sched.NameOptSched
	ArmBackpressure = sched.NameBackpressure
	ArmRoundRobin   = sched.NameRoundRobin
)

// BuildScheduler constructs a scheduler arm by registry name. Unknown
// names error with the full registered list.
func BuildScheduler(name string, cfg SchedulerConfig) (Scheduler, error) {
	return sched.Build(name, cfg)
}

// RegisteredSchedulers returns the sorted names of every registered arm.
func RegisteredSchedulers() []string { return sched.Registered() }

// NewPGOS builds the Predictive Guarantee Overlay Scheduler over parallel
// slices of paths and their monitors.
func NewPGOS(cfg PGOSConfig, streams []*Stream, paths []PathService, mons []*PathMonitor) *PGOS {
	return pgos.New(cfg, streams, paths, mons)
}

// NewWFQ builds the single-path weighted-fair-queuing baseline.
func NewWFQ(streams []*Stream, path PathService, paceLimit int) Scheduler {
	return sched.NewWFQ(streams, path, paceLimit)
}

// NewMSFQ builds the multi-server fair-queuing baseline.
func NewMSFQ(streams []*Stream, paths []PathService, paceLimit int) Scheduler {
	return sched.NewMSFQ(streams, paths, paceLimit)
}

// NewRoundRobin builds the blocked-layout (stock GridFTP) baseline.
func NewRoundRobin(streams []*Stream, paths []PathService, paceLimit int) Scheduler {
	return sched.NewRoundRobin(streams, paths, paceLimit)
}

// Guarantee math (Lemmas 1 and 2), usable directly for admission control.
var (
	// FeasibleRate is the largest extra rate a path can promise at
	// probability p given its CDF and already-committed rate.
	FeasibleRate = pgos.FeasibleRate
	// GuaranteeProbability is Lemma 1's P{x packets served in a window}.
	GuaranteeProbability = pgos.GuaranteeProbability
	// ExpectedViolations is Lemma 2's bound on per-window deadline misses.
	ExpectedViolations = pgos.ExpectedViolations
	// BufferBound sizes the client buffer masking shortfalls at a given
	// assurance level from the bandwidth distribution.
	BufferBound = pgos.BufferBound
)

// Overlay graph queries.
type (
	// Overlay is the logical overlay graph.
	Overlay = overlay.Graph
	// NodeID identifies an overlay node.
	NodeID = overlay.NodeID
)

// Overlay node kinds.
const (
	// ServerNode is a data source.
	ServerNode = overlay.Server
	// RouterNode is an in-network routing daemon.
	RouterNode = overlay.Router
	// ClientNode is a data sink.
	ClientNode = overlay.Client
)

// NewOverlay returns an empty overlay graph.
func NewOverlay() *Overlay { return overlay.NewGraph() }

// Cross-traffic synthesis.
type (
	// TraceGenerator produces one cross-traffic sample per tick.
	TraceGenerator = trace.Generator
	// NLANRConfig calibrates the synthetic NLANR-like aggregate.
	NLANRConfig = trace.NLANRConfig
)

// DefaultNLANR returns the experiments' cross-traffic calibration.
func DefaultNLANR() NLANRConfig { return trace.DefaultNLANR() }

// NewNLANRLike composes the calibrated cross-traffic generator.
func NewNLANRLike(cfg NLANRConfig, rng *rand.Rand) TraceGenerator {
	return trace.NewNLANRLike(cfg, rng)
}

// Live transport.
type (
	// Conn is a bidirectional message connection (TCP or RUDP).
	Conn = transport.Conn
	// TransportMessage is the wire unit.
	TransportMessage = transport.Message
	// TransportPath adapts a Conn to PathService for live scheduling.
	TransportPath = transport.Path
)

// DialTCP, ListenTCP, DialRUDP, ListenRUDP open live connections; see
// internal/transport for semantics.
var (
	DialTCP    = transport.DialTCP
	ListenTCP  = transport.ListenTCP
	DialRUDP   = transport.DialRUDP
	ListenRUDP = transport.ListenRUDP
)

// NewTransportPath wraps a live connection as a schedulable path.
func NewTransportPath(id int, name string, conn Conn, queueCap int) *TransportPath {
	return transport.NewPath(id, name, conn, queueCap)
}
