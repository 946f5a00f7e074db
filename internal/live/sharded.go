package live

import (
	"context"
	"sync"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Config parameterizes the live driver's tick loop.
type Config struct {
	// TickSeconds is the scheduling tick (default 0.005). Each tick the
	// driver runs one PGOS dispatch round against the paths' pacing state.
	TickSeconds float64
	// TwSec is the scheduling-window length in seconds (default 0.5).
	TwSec float64
	// Clock paces the driver; nil selects a new wall clock. Tests inject
	// a FakeClock.
	Clock Clock
	// Telemetry receives iqpaths_live_* metrics and the plane's shard and
	// scheduler metrics (nil keeps them private).
	Telemetry *telemetry.Registry
	// OnTick, when set, is invoked once per tick before dispatch — the
	// hook traffic generators use to Offer packets. It runs on the driver
	// goroutine without the driver lock held, so it may call Offer.
	OnTick func(tick int64)
}

// maxCatchUp bounds the ticks Run processes per wake when the driver has
// fallen behind wall time; beyond it the driver resyncs and counts the
// lag instead of spiraling.
const maxCatchUp = 50

func (c *Config) fillDefaults() {
	if c.TickSeconds <= 0 {
		c.TickSeconds = 0.005
	}
	if c.TwSec <= 0 {
		c.TwSec = 0.5
	}
	if c.Clock == nil {
		c.Clock = NewWallClock()
	}
}

// tickFlusher is the structural surface of a write-batching path: the
// driver kicks it once per tick, after dispatch placed the tick's packets.
// transport.Path implements it; emulated simnet paths don't and aren't
// flushed.
type tickFlusher interface {
	FlushTick()
}

func collectFlushers(paths []sched.PathService) []tickFlusher {
	var fs []tickFlusher
	for _, p := range paths {
		if f, ok := p.(tickFlusher); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// ShardDomain is the per-shard resource bundle for a sharded live
// driver: the shard's private live paths and their monitors (mons[j]
// watches Paths[j]). A path must belong to exactly one shard — two
// schedulers pacing one transport would race its send state.
type ShardDomain struct {
	Paths []sched.PathService
	Mons  []*monitor.PathMonitor
}

// ShardedConfig parameterizes a ShardedDriver. The embedded Config's
// OnTick hook runs on the coordinator goroutine.
type ShardedConfig struct {
	Config
	// Placement assigns new streams to shards (default hash placement).
	Placement shard.Placement
}

// ShardedDriver is the live driver: it runs the unchanged PGOS engine in
// wall-clock time. Applications Offer packets into stream backlogs,
// probers feed the path monitors' bandwidth samples via
// ObserveBandwidth, and each tick every scheduling domain runs one PGOS
// dispatch round, which paces each admitted stream's packets onto its
// domain's live paths per the scheduler's per-window rate decisions and
// re-runs the resource mapping whenever the monitored CDFs drift (the
// scheduler's own KS trigger).
// There is one domain per ShardDomain, streams spread by placement, and
// all control (admission, offers, probe feeds) flows through the
// plane's per-shard command queues, taking effect at the owning shard's
// next tick boundary. With one domain the plane ticks inline on the
// driver goroutine, byte-identical to a bare scheduler.
//
// Offer/ObserveBandwidth/AddStream are safe from any goroutine. Step and
// Run must be called from a single goroutine; Stats/Mapping-style reads
// serialize against Step internally, so they are safe anytime.
type ShardedDriver struct {
	cfg   ShardedConfig
	clock Clock
	plane *shard.Plane

	// stepMu serializes ticks with coordinator-context reads (stats):
	// holding it outside plane.Tick means the shards are quiescent.
	stepMu sync.Mutex

	// mu guards the window bookkeeping shared by Offer and Step.
	mu             sync.Mutex
	tick           int64
	windowTicks    int64
	nextWindowTick int64
	deadlineStamp  int64
	nextPktID      uint64
	lagResyncs     uint64

	// flushers are the tick-paced paths across every domain; Step kicks
	// them once per tick after the shard barrier, so each shard's dispatch
	// output leaves as coalesced batches.
	flushers []tickFlusher

	mTicks   *telemetry.Counter
	mOffered *telemetry.Counter
	mLag     *telemetry.Counter
}

// NewShardedDriver builds a sharded live driver with one scheduling
// domain per entry of domains. Streams are added dynamically with
// AddStream. Call Stop when done to release the shard goroutines.
func NewShardedDriver(cfg ShardedConfig, domains []ShardDomain) *ShardedDriver {
	cfg.fillDefaults()
	d := &ShardedDriver{
		cfg:   cfg,
		clock: cfg.Clock,
	}
	planeDomains := make([]shard.Domain, len(domains))
	for k, dom := range domains {
		planeDomains[k] = shard.Domain{Paths: dom.Paths, Mons: dom.Mons}
		d.flushers = append(d.flushers, collectFlushers(dom.Paths)...)
	}
	d.plane = shard.NewPlane(shard.Config{
		PGOS:      pgos.Config{TwSec: cfg.TwSec, TickSeconds: cfg.TickSeconds},
		Placement: cfg.Placement,
		Telemetry: cfg.Telemetry,
	}, planeDomains)
	d.windowTicks = int64(cfg.TwSec/cfg.TickSeconds + 0.5)
	if d.windowTicks < 1 {
		d.windowTicks = 1
	}
	d.nextWindowTick = 0
	d.deadlineStamp = d.clock.Stamp() + int64(cfg.TwSec*1e9)
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	d.mTicks = reg.Counter("iqpaths_live_ticks_total", "Driver scheduling ticks executed.")
	d.mOffered = reg.Counter("iqpaths_live_offered_packets_total", "Packets offered into stream backlogs.")
	d.mLag = reg.Counter("iqpaths_live_lag_resyncs_total", "Times the driver resynced after falling behind wall time.")
	return d
}

// Plane exposes the underlying shard plane (for per-shard inspection in
// coordinator context, e.g. between ticks in tests).
func (d *ShardedDriver) Plane() *shard.Plane { return d.plane }

// Stop releases the shard goroutines. Call after Run has returned.
func (d *ShardedDriver) Stop() { d.plane.Stop() }

// AddStream admits a new stream, returning its global ID and shard. The
// stream materializes at the owning shard's next tick.
func (d *ShardedDriver) AddStream(sp stream.Spec) (id, shardIdx int) {
	return d.plane.AddStream(sp)
}

// Offer enqueues one packet of the given wire size for global stream id.
// The packet's deadline is the end of the current scheduling window, both
// in driver ticks (for PGOS) and as a wire Stamp carried in the packet's
// Frame field (for the sink's on-time accounting).
func (d *ShardedDriver) Offer(id int, bits float64) {
	d.mu.Lock()
	d.maybeEnterWindow()
	d.nextPktID++
	p := simnet.AcquirePacket()
	p.ID = d.nextPktID
	p.Stream = id
	p.Bits = bits
	p.Created = d.tick
	p.Deadline = (d.tick/d.windowTicks + 1) * d.windowTicks
	p.Frame = uint64(d.deadlineStamp)
	d.mu.Unlock()
	// Backlog acceptance is decided on the owning shard at the next tick
	// boundary; refusals are counted there (shard offer-drop metric).
	d.plane.Offer(id, p)
	d.mOffered.Inc()
}

// maybeEnterWindow refreshes the window bookkeeping when the tick counter
// has crossed into a new scheduling window: the new window's wire deadline
// is TwSec from the wall time of its first event — whichever of Offer or
// Step touches it first — so every packet offered inside the window
// carries one consistent stamp. Callers hold d.mu.
func (d *ShardedDriver) maybeEnterWindow() {
	if d.tick >= d.nextWindowTick {
		d.deadlineStamp = d.clock.Stamp() + int64(d.cfg.TwSec*1e9)
		d.nextWindowTick = (d.tick/d.windowTicks + 1) * d.windowTicks
	}
}

// ObserveBandwidth feeds one available-bandwidth sample (Mbps) to path j
// of shard k — the sharded prober callback.
func (d *ShardedDriver) ObserveBandwidth(k, j int, mbps float64) {
	d.plane.ObserveBandwidth(k, j, mbps)
}

// ObserveRTT discards an RTT sample: PGOS maps on bandwidth alone, so
// the monitors keep no RTT window. It remains only because a benchmark
// harness binds prober RTT callbacks to it; it goes with that binding.
func (d *ShardedDriver) ObserveRTT(k, j int, sec float64) {}

// ObserveLoss discards a loss-rate sample, as ObserveRTT does an RTT one.
func (d *ShardedDriver) ObserveLoss(k, j int, rate float64) {}

// Step executes one scheduling tick across every shard (a barrier; see
// shard.Plane.Tick) after the OnTick hook and window bookkeeping.
func (d *ShardedDriver) Step() {
	d.mu.Lock()
	t := d.tick
	d.maybeEnterWindow()
	d.mu.Unlock()
	if d.cfg.OnTick != nil {
		d.cfg.OnTick(t)
	}
	d.stepMu.Lock()
	d.plane.Tick(t)
	d.stepMu.Unlock()
	// The barrier guarantees every shard's dispatch round is complete;
	// flush each batching path's queue as one write batch.
	for _, f := range d.flushers {
		f.FlushTick()
	}
	d.mu.Lock()
	d.tick++
	d.mu.Unlock()
	d.mTicks.Inc()
}

// Run paces Step at TickSeconds on the configured clock until ctx is
// done. When the process falls behind (GC pause, noisy neighbor) it
// catches up at most maxCatchUp ticks per wake, then resyncs — stretching
// virtual time rather than bursting unbounded dispatch rounds.
func (d *ShardedDriver) Run(ctx context.Context) {
	tickDur := time.Duration(d.cfg.TickSeconds * float64(time.Second))
	next := d.clock.Now() + tickDur
	for {
		wait := next - d.clock.Now()
		select {
		case <-ctx.Done():
			return
		case <-d.clock.After(wait):
		}
		now := d.clock.Now()
		steps := 0
		for next <= now && steps < maxCatchUp {
			d.Step()
			next += tickDur
			steps++
		}
		if next <= now {
			next = now + tickDur
			d.mu.Lock()
			d.lagResyncs++
			d.mu.Unlock()
			d.mLag.Inc()
		}
	}
}

// Tick returns the driver's current tick count.
func (d *ShardedDriver) Tick() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tick
}

// LagResyncs returns how many times Run resynced after falling behind.
func (d *ShardedDriver) LagResyncs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lagResyncs
}

// SchedStats returns the plane's aggregated scheduler counters, indexed
// by global stream ID. Safe anytime: it serializes against Step.
func (d *ShardedDriver) SchedStats() pgos.Stats {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	return d.plane.Stats()
}

// ShardStats returns each shard's raw scheduler counters. Safe anytime.
func (d *ShardedDriver) ShardStats() []pgos.Stats {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	return d.plane.ShardStats()
}

// Warm reports whether every shard's monitors can map. Safe anytime.
func (d *ShardedDriver) Warm() bool {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	return d.plane.Warm()
}

// MeanBandwidth returns shard k path j's windowed mean
// available-bandwidth estimate in Mbps (0 for out-of-range indices) —
// what link-state advertisements report. Safe anytime: the tick barrier
// is held while reading the shard's monitor.
func (d *ShardedDriver) MeanBandwidth(k, j int) float64 {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	if k < 0 || k >= d.plane.NumShards() {
		return 0
	}
	mons := d.plane.Shard(k).Mons()
	if j < 0 || j >= len(mons) {
		return 0
	}
	return mons[j].MeanBandwidth()
}

// CBR generates constant-bit-rate traffic in whole packets: each call
// accumulates dtSec worth of bits and returns how many full packets are
// due. Carry keeps long-run rate exact regardless of tick size.
type CBR struct {
	Mbps       float64
	PacketBits float64
	carry      float64
}

// Packets returns the number of whole packets due after dtSec elapsed.
// Each call advances the generator by dtSec, so call it exactly once per
// tick and reuse the result (not in a loop condition, which re-evaluates).
func (c *CBR) Packets(dtSec float64) int {
	if c.PacketBits <= 0 {
		c.PacketBits = 12000
	}
	c.carry += c.Mbps * 1e6 * dtSec
	n := int(c.carry / c.PacketBits)
	c.carry -= float64(n) * c.PacketBits
	return n
}
