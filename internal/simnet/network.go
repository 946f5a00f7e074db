package simnet

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/telemetry"
)

// Network owns the links, paths, and the virtual clock.
type Network struct {
	tickSeconds float64
	tick        int64
	links       []*Link
	linkByName  map[string]*Link
	paths       []*Path
	rng         *rand.Rand
	nextPktID   uint64
	tel         *telemetry.Registry
	// arena, when non-nil, is the packet pool NewPacket draws from — a
	// shard plane gives each per-shard network its own so steady-state
	// recycling stays core-local. Nil selects the process-wide default.
	arena *Arena
	// mPoolOutstanding mirrors the packet-pool population once per tick
	// (set by SetTelemetry): the network's own arena when one is set, the
	// process-wide default otherwise.
	mPoolOutstanding *telemetry.Gauge
}

// SetArena makes NewPacket draw from a instead of the process-wide
// default pool (nil restores the default). Call it before injecting
// traffic; packets already in flight keep their origin arena.
func (n *Network) SetArena(a *Arena) { n.arena = a }

// New creates a network advancing in ticks of tickSeconds (e.g. 0.01).
// All randomness (loss draws) comes from rng; pass a seeded source for
// reproducible runs. rng must not be nil.
func New(tickSeconds float64, rng *rand.Rand) *Network {
	if tickSeconds <= 0 {
		panic("simnet: tickSeconds must be positive")
	}
	if rng == nil {
		panic("simnet: rng must not be nil")
	}
	return &Network{tickSeconds: tickSeconds, rng: rng}
}

// TickSeconds returns the tick duration.
func (n *Network) TickSeconds() float64 { return n.tickSeconds }

// Tick returns the current virtual tick.
func (n *Network) Tick() int64 { return n.tick }

// Now returns the current virtual time in seconds.
func (n *Network) Now() float64 { return float64(n.tick) * n.tickSeconds }

// AddLink creates a link from cfg and registers it.
func (n *Network) AddLink(cfg LinkConfig) *Link {
	if cfg.CapacityMbps <= 0 {
		panic(fmt.Sprintf("simnet: link %q needs positive capacity", cfg.Name))
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1000
	}
	ringLen := cfg.DelayTicks + 1
	l := &Link{
		cfg:       cfg,
		net:       n,
		delayRing: make([][]*Packet, ringLen),
		rng:       n.rng,
		capScale:  1,
		lossProb:  cfg.LossProb,
	}
	l.initTelemetry(n.tel)
	n.links = append(n.links, l)
	if n.linkByName == nil {
		n.linkByName = make(map[string]*Link)
	}
	if _, dup := n.linkByName[cfg.Name]; !dup {
		n.linkByName[cfg.Name] = l // first registration wins, as Link documents
	}
	return l
}

// AddPath registers a path traversing the given links in order.
func (n *Network) AddPath(name string, links ...*Link) *Path {
	if len(links) == 0 {
		panic("simnet: path needs at least one link")
	}
	p := &Path{id: len(n.paths), name: name, links: links, net: n}
	p.initTelemetry(n.tel)
	n.paths = append(n.paths, p)
	return p
}

// Link returns the link with the given configured name, or nil when no
// such link exists. Names are assumed unique per network (the topology
// builders guarantee it); with duplicates the first registered wins.
// Lookup is O(1) via a map maintained by AddLink — fault scripts and the
// control plane resolve links by name on every event, which at thousands
// of links made the previous linear scan a hot spot.
func (n *Network) Link(name string) *Link {
	return n.linkByName[name]
}

// NewPacket returns a pooled packet of the given size tagged with a
// stream (see the ownership contract in pool.go).
func (n *Network) NewPacket(stream int, bits float64) *Packet {
	n.nextPktID++
	var p *Packet
	if n.arena != nil {
		p = n.arena.Acquire()
	} else {
		p = AcquirePacket()
	}
	p.ID = n.nextPktID
	p.Stream = stream
	p.Bits = bits
	p.Created = n.tick
	return p
}

// Step advances the virtual clock one tick: every link transmits against
// the capacity its cross traffic left over, then in-flight packets whose
// propagation delay expired advance to their next hop or are delivered.
func (n *Network) Step() {
	for _, l := range n.links {
		l.step()
	}
	n.tick++
	for _, l := range n.links {
		for _, p := range l.arrivals() {
			if l.cfg.Process != nil && !l.cfg.Process(p) {
				l.stats.Processed++
				ReleasePacket(p)
				continue
			}
			p.hop++
			path := p.path
			if p.hop >= len(path.links) {
				p.Delivered = n.tick
				path.delivered = append(path.delivered, p)
				continue
			}
			if !path.links[p.hop].enqueue(p) {
				path.stats.Dropped++
				if path.mDropped != nil {
					path.mDropped.Inc()
				}
				ReleasePacket(p)
			}
		}
	}
	if n.mPoolOutstanding != nil {
		if n.arena != nil {
			n.mPoolOutstanding.Set(float64(n.arena.Outstanding()))
		} else {
			n.mPoolOutstanding.Set(float64(PoolOutstanding()))
		}
	}
}
