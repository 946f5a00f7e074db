package simnet

import (
	"sync"
	"sync/atomic"
)

// Packet pooling. A 300-second emulated run moves millions of packets;
// allocating each one individually makes the garbage collector the
// largest consumer of scheduler time at scale. Pools recycle packet
// structs at the points where the emulator itself retires them — random
// loss, queue-overflow drops, in-flight consumption, and (via
// Path.DrainDelivered) delivery — so a steady-state tick allocates
// nothing.
//
// Ownership contract: a packet obtained from NewPacket/AcquirePacket/
// Arena.Acquire is owned by exactly one party at a time. Whoever retires
// it calls ReleasePacket; holding a reference past release is a
// use-after-free in spirit (the struct will be recycled and rewritten).
// Releasing a packet twice panics — silently double-pooling would hand
// the same struct to two owners and corrupt the outstanding accounting.
// Code that wants to keep delivered packets takes them via TakeDelivered,
// which transfers ownership and never releases.
//
// Sharding: each scheduler shard owns an Arena so its steady-state
// acquire/release traffic stays core-local. Packets may legally cross
// shards (a producer offers a packet from its own pool to a stream on
// another shard; a relay forwards a delivered packet) and be released by
// a shard other than the one that acquired them. ReleasePacket routes
// both the struct and the accounting credit to the packet's *origin*
// arena, so per-arena Outstanding counts cannot leak on hand-off and
// never go negative on the releasing side.

// padUint64 is a cache-line-padded atomic counter: the pool counters are
// hit by every shard on every packet, and without padding the
// acquired/released pair would false-share one line.
type padUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Arena is one packet pool with its own outstanding accounting. The zero
// value is ready to use. Arenas are safe for concurrent use; a shard that
// owns one still gets core-local recycling because sync.Pool keeps
// per-P caches.
type Arena struct {
	pool     sync.Pool
	acquired padUint64
	released padUint64
}

// defaultArena backs the package-level AcquirePacket/ReleasePacket and
// adopts packets that were constructed directly (not pooled).
var defaultArena Arena

// Acquire returns a zeroed packet owned by the caller and charged to a.
func (a *Arena) Acquire() *Packet {
	a.acquired.v.Add(1)
	p, _ := a.pool.Get().(*Packet)
	if p == nil {
		p = new(Packet)
	}
	p.pooled = false
	p.arena = a
	return p
}

// Outstanding returns the number of packets acquired from a and not yet
// released (by anyone — releases are credited to the origin arena even
// when another shard performs them).
func (a *Arena) Outstanding() int64 {
	return int64(a.acquired.v.Load()) - int64(a.released.v.Load())
}

// release retires p into a, crediting a's accounting.
func (a *Arena) release(p *Packet) {
	*p = Packet{pooled: true, arena: a}
	a.released.v.Add(1)
	a.pool.Put(p)
}

// AcquirePacket returns a zeroed packet from the default arena.
func AcquirePacket() *Packet {
	return defaultArena.Acquire()
}

// ReleasePacket returns a packet to its origin arena's pool. The caller
// must hold the only live reference; the struct is zeroed and will be
// reused. Releasing the same packet twice panics. Packets constructed
// directly (never acquired from a pool) are adopted by the default arena:
// its acquired counter is bumped alongside released so Outstanding stays
// balanced.
func ReleasePacket(p *Packet) {
	if p == nil {
		return
	}
	if p.pooled {
		panic("simnet: double release of " + p.String())
	}
	a := p.arena
	if a == nil {
		// Direct construction (tests, hand-built packets): adopt.
		a = &defaultArena
		a.acquired.v.Add(1)
	}
	a.release(p)
}

// PoolOutstanding returns the number of packets acquired from the default
// arena and not yet released — the live packet population of unsharded
// runs, where all producers acquire from the default arena. Exposed as
// the iqpaths_simnet_packet_pool gauge. Sharded planes read each shard
// arena's Outstanding instead.
func PoolOutstanding() int64 {
	return defaultArena.Outstanding()
}
