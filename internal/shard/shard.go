// Package shard is the multi-core data plane: a Plane partitions streams
// across N per-core shards, each an independent scheduling domain — its
// own PGOS instance (deadline heaps and all), its own paths and quantile
// windows, its own packet-pool arena, and its own telemetry scope —
// ticked by its own goroutine on a shared clock. Cross-shard control
// (stream placement, offers, monitor feeds) travels through per-shard
// command queues drained at tick boundaries, so no shard ever takes a
// lock inside its dispatch loop and the lock-free telemetry registry
// remains the only plane-wide aggregation point.
//
// Ownership invariants (DESIGN.md §11 states the full contract):
//
//   - A stream is placed on exactly one shard and never leaves it. Its
//     backlog, heap entries, quantile windows, and pool packets belong to
//     that shard; only the shard's goroutine — inside tick — may touch
//     them.
//   - The coordinator (whoever calls Plane.Tick) may read shard state
//     only between ticks; Plane.Tick is a barrier, so shards are
//     quiescent whenever Tick is not executing.
//   - Everything else goes through the command queue: producers may
//     submit from any goroutine at any time; effects land at the next
//     tick boundary, in submission order.
package shard

import (
	"fmt"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Domain is the per-shard resource bundle the plane builder supplies:
// the shard's private paths and monitors (mons[j] watches Paths[j]), its
// packet arena, and an optional substrate hook.
type Domain struct {
	Paths []sched.PathService
	Mons  []*monitor.PathMonitor
	// Arena, when non-nil, is the shard's packet pool; its packets
	// released on another shard still credit this one (see simnet pool
	// accounting). Nil leaves packet acquisition to the traffic source.
	Arena *simnet.Arena
	// Step, when non-nil, advances the shard's private substrate after
	// dispatch each tick — e.g. a per-shard simnet.Network's Step plus
	// delivery drain. It runs on the shard goroutine.
	Step func(now int64)
}

// Shard is one scheduling domain. All mutable state is owned by the
// shard's goroutine during Plane.Tick; see the package invariants for
// when other goroutines may look.
type Shard struct {
	id    int
	plane *Plane
	sched *pgos.Scheduler

	streams []*stream.Stream // dense local index = stream.ID
	global  []int            // local index -> global stream ID
	local   []int32          // global stream ID -> local index, -1 if not owned

	paths []sched.PathService
	mons  []*monitor.PathMonitor
	arena *simnet.Arena
	step  func(now int64)

	ring cmdQueue

	// Goroutine plumbing; unused when the plane runs single-shard inline.
	tickCh chan int64
	doneCh chan struct{}
	stopCh chan struct{}

	mTicks      *telemetry.Counter
	mCommands   *telemetry.Counter
	mOfferDrops *telemetry.Counter
	mStreams    *telemetry.Gauge
	mArena      *telemetry.Gauge
}

func newShard(id int, p *Plane, dom Domain, reg *telemetry.Registry) *Shard {
	if len(dom.Paths) == 0 {
		panic(fmt.Sprintf("shard: domain %d needs at least one path", id))
	}
	if len(dom.Mons) != len(dom.Paths) {
		panic(fmt.Sprintf("shard: domain %d needs one monitor per path", id))
	}
	scope := reg.WithLabels("shard", fmt.Sprint(id))
	cfg := p.cfg.PGOS
	cfg.Telemetry = scope
	sh := &Shard{
		id:     id,
		plane:  p,
		paths:  dom.Paths,
		mons:   dom.Mons,
		arena:  dom.Arena,
		step:   dom.Step,
		tickCh: make(chan int64),
		doneCh: make(chan struct{}),
		stopCh: make(chan struct{}),

		mTicks:      scope.Counter("iqpaths_shard_ticks_total", "Ticks executed by this shard."),
		mCommands:   scope.Counter("iqpaths_shard_commands_total", "Cross-shard commands applied at tick boundaries."),
		mOfferDrops: scope.Counter("iqpaths_shard_offer_drops_total", "Offered packets refused by a full stream backlog."),
		mStreams:    scope.Gauge("iqpaths_shard_streams", "Streams owned by this shard."),
		mArena:      scope.Gauge("iqpaths_shard_arena_outstanding", "Packets outstanding from this shard's arena."),
	}
	sh.sched = pgos.New(cfg, nil, dom.Paths, dom.Mons)
	return sh
}

// ID returns the shard's index within its plane.
func (sh *Shard) ID() int { return sh.id }

// NumStreams returns the number of streams the shard owns.
func (sh *Shard) NumStreams() int { return len(sh.streams) }

// Stream returns the local stream at dense index i. Shard-context only:
// the shard goroutine during tick, or the coordinator between ticks.
func (sh *Shard) Stream(i int) *stream.Stream { return sh.streams[i] }

// GlobalID returns the global stream ID behind local index i.
func (sh *Shard) GlobalID(i int) int { return sh.global[i] }

// LocalIndex returns the dense local index of global stream g, if owned.
// Shard-context only.
func (sh *Shard) LocalIndex(g int) (int, bool) {
	if uint(g) >= uint(len(sh.local)) || sh.local[g] < 0 {
		return 0, false
	}
	return int(sh.local[g]), true
}

// Mons returns the shard's path monitors.
func (sh *Shard) Mons() []*monitor.PathMonitor { return sh.mons }

// Scheduler returns the shard's PGOS instance. Shard-context only.
func (sh *Shard) Scheduler() *pgos.Scheduler { return sh.sched }

// run is the shard goroutine: it sleeps between barriers and executes
// one tick per wake.
func (sh *Shard) run() {
	for {
		select {
		case now := <-sh.tickCh:
			sh.tick(now)
			sh.doneCh <- struct{}{}
		case <-sh.stopCh:
			return
		}
	}
}

// tick is one shard tick: drain the command batch, inject traffic, run
// one PGOS dispatch round, then advance the private substrate.
func (sh *Shard) tick(now int64) {
	sh.drainCommands(now)
	if sh.plane.cfg.OnShardTick != nil {
		sh.plane.cfg.OnShardTick(sh, now)
	}
	sh.sched.Tick(now)
	if sh.step != nil {
		sh.step(now)
	}
	sh.mTicks.Inc()
	if sh.arena != nil {
		sh.mArena.Set(float64(sh.arena.Outstanding()))
	}
}

// drainCommands applies every command submitted before this tick
// boundary, in submission order.
func (sh *Shard) drainCommands(now int64) {
	batch := sh.ring.swap()
	if batch == nil {
		return
	}
	for i := range batch {
		sh.apply(&batch[i], now)
		batch[i] = command{} // drop packet/path references before recycling
	}
	sh.mCommands.Add(uint64(len(batch)))
	sh.ring.recycle(batch)
}

func (sh *Shard) apply(c *command, now int64) {
	switch c.op {
	case opAddStream:
		sh.addLocal(c.a, c.spec)
	case opOffer:
		li, ok := sh.LocalIndex(c.a)
		if !ok {
			// Unreachable while the directory is append-only: AddStream
			// queues the stream before any offer can name it.
			simnet.ReleasePacket(c.pkt)
			sh.plane.mLostOffers.Inc()
			return
		}
		if !sh.streams[li].Push(c.pkt) {
			simnet.ReleasePacket(c.pkt)
			sh.mOfferDrops.Inc()
		}
	case opObserve:
		if c.a < 0 || c.a >= len(sh.mons) {
			return
		}
		switch c.b {
		case observeBandwidth:
			sh.mons[c.a].ObserveBandwidth(c.v)
		case observeRTT:
			sh.mons[c.a].ObserveRTT(c.v)
		case observeLoss:
			sh.mons[c.a].ObserveLoss(c.v)
		}
	}
}

// addLocal appends a new local stream slot for global ID g.
func (sh *Shard) addLocal(g int, spec *stream.Spec) {
	li := len(sh.streams)
	st := stream.New(li, *spec)
	sh.streams = append(sh.streams, st)
	sh.global = append(sh.global, g)
	for len(sh.local) <= g {
		sh.local = append(sh.local, -1)
	}
	sh.local[g] = int32(li)
	sh.sched.AddStream(st)
	sh.mStreams.Set(float64(len(sh.streams)))
}
