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
// (AddStream, Offer, Observe*) is safe from any goroutine at any time and
// takes effect at the next tick boundary of the affected shard.
type Plane struct {
	cfg    Config
	shards []*Shard

	// mu guards the directory below. Control path only: the shard tick
	// loop never touches it.
	mu     sync.Mutex
	owner  []int32 // global stream ID -> shard index; IDs are dense, append-only
	counts []int   // placed streams per shard

	stopOnce sync.Once

	mPlaced     *telemetry.Counter
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
// stream materializes on the shard at its next tick boundary. Its command
// is queued before the directory lock is released, so any offer routed to
// the new ID lands on the shard's ring behind it.
func (p *Plane) AddStream(spec stream.Spec) (globalID, shardIdx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	globalID = len(p.owner)
	shardIdx = p.cfg.Placement.Place(globalID, spec, p.counts)
	if shardIdx < 0 || shardIdx >= len(p.shards) {
		panic(fmt.Sprintf("shard: placement %q returned shard %d of %d",
			p.cfg.Placement.Name(), shardIdx, len(p.shards)))
	}
	p.owner = append(p.owner, int32(shardIdx))
	p.counts[shardIdx]++
	p.mPlaced.Inc()
	p.shards[shardIdx].ring.push(command{op: opAddStream, a: globalID, spec: &spec})
	return globalID, shardIdx
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

// ObserveBandwidth feeds one available-bandwidth sample (Mbps) to path j
// of shard k, applied at that shard's next tick boundary.
func (p *Plane) ObserveBandwidth(k, j int, mbps float64) {
	p.shards[k].ring.push(command{op: opObserve, a: j, v: mbps})
}

// Owner returns the shard owning global stream id.
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
// PerStream slice is indexed by *global* stream ID. Coordinator-context
// only.
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
			g := sh.global[li]
			agg.PerStream[g].Scheduled += ps.Scheduled
			agg.PerStream[g].OtherPath += ps.OtherPath
			agg.PerStream[g].Unscheduled += ps.Unscheduled
		}
	}
	return agg
}
