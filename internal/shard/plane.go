package shard

import (
	"fmt"
	"sync"

	"iqpaths/internal/pgos"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Config parameterizes a Plane.
type Config struct {
	// PGOS carries the scheduler parameters applied to every shard
	// (Config.Telemetry inside it is ignored — each shard gets a scoped
	// view of the plane's registry instead).
	PGOS pgos.Config
	// Placement assigns new streams to shards (default HashPlacement).
	Placement Placement
	// Telemetry receives the plane's and every shard's metrics, the
	// latter labeled shard="k". Nil routes them to a private registry.
	Telemetry *telemetry.Registry
	// OnShardTick, when set, runs on each shard's goroutine every tick
	// after the command drain and before dispatch — the traffic-injection
	// hook. It must touch only that shard's streams and domain.
	OnShardTick func(sh *Shard, now int64)
}

// Plane owns N shards and the stream directory mapping global stream IDs
// to their owning shard. Exactly one goroutine — the coordinator — may
// call Tick/Stop and read shard state between ticks; every other method
// (AddStream, Rebind, Offer, Observe*) is safe from any goroutine at any
// time and takes effect at the next tick boundary of the affected shard.
type Plane struct {
	cfg    Config
	shards []*Shard

	// mu guards the directory below. Control path only: the shard tick
	// loop never touches it.
	mu        sync.Mutex
	owner     []int32 // global stream ID -> shard index; IDs are dense
	counts    []int   // placed streams per shard
	migrating []bool  // by global stream ID

	stopOnce sync.Once

	mPlaced     *telemetry.Counter
	mMigrations *telemetry.Counter
	mRerouted   *telemetry.Counter
	mLostOffers *telemetry.Counter
}

// NewPlane builds a plane with one shard per domain. Multi-shard planes
// start one goroutine per shard immediately (call Stop to release them);
// a single-shard plane runs ticks inline on the coordinator goroutine,
// which keeps its execution byte-identical to an unsharded scheduler.
func NewPlane(cfg Config, domains []Domain) *Plane {
	if len(domains) == 0 {
		panic("shard: NewPlane needs at least one domain")
	}
	if cfg.Placement == nil {
		cfg.Placement = HashPlacement{}
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Plane{
		cfg:    cfg,
		counts: make([]int, len(domains)),

		mPlaced:     reg.Counter("iqpaths_plane_streams_placed_total", "Streams placed onto shards."),
		mMigrations: reg.Counter("iqpaths_plane_migrations_total", "Completed cross-shard stream migrations."),
		mRerouted:   reg.Counter("iqpaths_plane_rerouted_offers_total", "Offers rerouted after racing a migration."),
		mLostOffers: reg.Counter("iqpaths_plane_lost_offers_total", "Offers dropped because the stream is unknown."),
	}
	for i, dom := range domains {
		p.shards = append(p.shards, newShard(i, p, dom, reg))
	}
	if len(p.shards) > 1 {
		for _, sh := range p.shards {
			go sh.run()
		}
	}
	return p
}

// NumShards returns the shard count.
func (p *Plane) NumShards() int { return len(p.shards) }

// Shard returns shard k. Coordinator-context only for its mutable state.
func (p *Plane) Shard(k int) *Shard { return p.shards[k] }

// Tick runs one tick on every shard and waits for all of them — a
// barrier. Single-shard planes tick inline; multi-shard planes fan the
// tick out to the shard goroutines, so shards execute concurrently but
// the plane is always quiescent when Tick returns.
func (p *Plane) Tick(now int64) {
	if len(p.shards) == 1 {
		p.shards[0].tick(now)
		return
	}
	for _, sh := range p.shards {
		sh.tickCh <- now
	}
	for _, sh := range p.shards {
		<-sh.doneCh
	}
}

// Stop terminates the shard goroutines (no-op for single-shard planes
// and on repeat calls). The plane must be quiescent (no Tick executing).
func (p *Plane) Stop() {
	p.stopOnce.Do(func() {
		if len(p.shards) > 1 {
			for _, sh := range p.shards {
				close(sh.stopCh)
			}
		}
	})
}

// AddStream places a new stream and returns its global ID and shard. The
// stream materializes on the shard at its next tick boundary.
func (p *Plane) AddStream(spec stream.Spec) (globalID, shardIdx int) {
	p.mu.Lock()
	globalID = len(p.owner)
	shardIdx = p.cfg.Placement.Place(globalID, spec, p.counts)
	if shardIdx < 0 || shardIdx >= len(p.shards) {
		p.mu.Unlock()
		panic(fmt.Sprintf("shard: placement %q returned shard %d of %d",
			p.cfg.Placement.Name(), shardIdx, len(p.shards)))
	}
	p.owner = append(p.owner, int32(shardIdx))
	p.migrating = append(p.migrating, false)
	p.counts[shardIdx]++
	p.mu.Unlock()
	p.mPlaced.Inc()
	p.shards[shardIdx].ring.push(command{op: opAddStream, a: globalID, spec: &spec})
	return globalID, shardIdx
}

// Rebind migrates global stream id to shard target: at the owner's next
// tick boundary the backlog is popped and handed to the target through
// the plane, preserving packet order. Offers racing the migration are
// rerouted, not lost. It returns an error for unknown streams, bad
// targets, and streams already mid-migration.
// testonly: stream migration has no product caller yet; shard's migration
// tests and live's TestShardedDriverRebindLive drive it, and deleting it
// would change the offer path the live plane shares.
func (p *Plane) Rebind(id, target int) error {
	if target < 0 || target >= len(p.shards) {
		return fmt.Errorf("shard: rebind stream %d: no shard %d", id, target)
	}
	p.mu.Lock()
	from, ok := p.ownerLocked(id)
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("shard: rebind: unknown stream %d", id)
	}
	if from == target {
		p.mu.Unlock()
		return nil
	}
	if p.migrating[id] {
		p.mu.Unlock()
		return fmt.Errorf("shard: rebind: stream %d already migrating", id)
	}
	p.migrating[id] = true
	p.mu.Unlock()
	p.shards[from].ring.push(command{op: opExtract, a: id, b: target})
	return nil
}

// completeMigration is the owner shard's upcall after extracting a
// stream: retarget the directory, then inject spec+backlog into the
// target's queue. Runs on the source shard's goroutine; push never
// blocks, so shard-context submission cannot deadlock.
func (p *Plane) completeMigration(id, target int, spec *stream.Spec, pkts []*simnet.Packet) {
	p.mu.Lock()
	from := p.owner[id]
	p.owner[id] = int32(target)
	p.counts[from]--
	p.counts[target]++
	p.migrating[id] = false
	p.mu.Unlock()
	p.mMigrations.Inc()
	p.shards[target].ring.push(command{op: opInject, a: id, spec: spec, pkts: pkts})
}

// migrationFailed clears the in-flight mark after a stale extract (the
// stream was not on the shard the directory claimed — e.g. two rebinds
// raced and the first already moved it).
func (p *Plane) migrationFailed(id int) {
	p.mu.Lock()
	p.migrating[id] = false
	p.mu.Unlock()
}

// Offer routes one packet to global stream id's owner; it lands in the
// stream's backlog at that shard's next tick boundary. Packets for
// unknown streams are released and counted.
func (p *Plane) Offer(id int, pkt *simnet.Packet) {
	p.mu.Lock()
	shardIdx, ok := p.ownerLocked(id)
	p.mu.Unlock()
	if !ok {
		simnet.ReleasePacket(pkt)
		p.mLostOffers.Inc()
		return
	}
	p.shards[shardIdx].ring.push(command{op: opOffer, a: id, pkt: pkt})
}

// reroute re-submits an offer that raced a migration (shard upcall).
func (p *Plane) reroute(id int, pkt *simnet.Packet) {
	p.mRerouted.Inc()
	p.Offer(id, pkt)
}

// ObserveBandwidth feeds one available-bandwidth sample (Mbps) to path j
// of shard k, applied at that shard's next tick boundary.
func (p *Plane) ObserveBandwidth(k, j int, mbps float64) {
	p.shards[k].ring.push(command{op: opObserve, a: j, b: observeBandwidth, v: mbps})
}

// ObserveRTT feeds one RTT sample (seconds) to path j of shard k.
func (p *Plane) ObserveRTT(k, j int, sec float64) {
	p.shards[k].ring.push(command{op: opObserve, a: j, b: observeRTT, v: sec})
}

// ObserveLoss feeds one loss-rate sample ([0,1]) to path j of shard k.
func (p *Plane) ObserveLoss(k, j int, rate float64) {
	p.shards[k].ring.push(command{op: opObserve, a: j, b: observeLoss, v: rate})
}

// Owner returns the shard currently owning global stream id.
func (p *Plane) Owner(id int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ownerLocked(id)
}

// ownerLocked is Owner with p.mu held.
func (p *Plane) ownerLocked(id int) (int, bool) {
	if uint(id) >= uint(len(p.owner)) {
		return 0, false
	}
	return int(p.owner[id]), true
}

// Warm reports whether every monitor of every shard has enough samples
// for PGOS to map. Coordinator-context only.
func (p *Plane) Warm() bool {
	for _, sh := range p.shards {
		for _, m := range sh.mons {
			if !m.Warm() {
				return false
			}
		}
	}
	return true
}

// ShardStats returns each shard's scheduler counters (local stream
// indices). Coordinator-context only.
func (p *Plane) ShardStats() []pgos.Stats {
	out := make([]pgos.Stats, len(p.shards))
	for k, sh := range p.shards {
		out[k] = sh.sched.Stats()
	}
	return out
}

// Stats aggregates the shards' scheduler counters into one view whose
// PerStream slice is indexed by *global* stream ID — a stream that
// migrated keeps the counts it accrued on every shard it lived on.
// Coordinator-context only.
func (p *Plane) Stats() pgos.Stats {
	p.mu.Lock()
	n := len(p.owner)
	p.mu.Unlock()
	var agg pgos.Stats
	agg.PerStream = make([]pgos.StreamStats, n)
	for _, sh := range p.shards {
		st := sh.sched.Stats()
		agg.Remaps += st.Remaps
		agg.ScheduledSent += st.ScheduledSent
		agg.OtherPathSent += st.OtherPathSent
		agg.UnscheduledSent += st.UnscheduledSent
		agg.SlotMisses += st.SlotMisses
		agg.SendFailures += st.SendFailures
		for li, ps := range st.PerStream {
			if li < len(sh.global) {
				g := sh.global[li]
				agg.PerStream[g].Scheduled += ps.Scheduled
				agg.PerStream[g].OtherPath += ps.OtherPath
				agg.PerStream[g].Unscheduled += ps.Unscheduled
			}
		}
	}
	return agg
}
