// Package simnet is a deterministic, virtual-time network emulator: the
// substrate standing in for the paper's Emulab testbed. Links have finite
// capacity, propagation delay, bounded FIFO queues, random loss, and carry
// trace-driven cross traffic that consumes capacity ahead of overlay
// traffic — so the available bandwidth an overlay path sees each tick is
// capacity − cross, exactly the process the paper's monitors measure and
// PGOS schedules against.
//
// Time advances in fixed ticks under Network.Step; a 300-second paper run
// completes in milliseconds and is bit-for-bit reproducible under a seed.
// Nothing in this package is safe for concurrent use; experiments drive a
// Network from a single goroutine.
package simnet

import "fmt"

// Packet is the unit the emulator moves. Bits is the wire size; packets
// larger than a tick's budget straddle ticks (the link tracks transmission
// progress of the head-of-line packet).
type Packet struct {
	// ID is unique per Network, assigned by NewPacket.
	ID uint64
	// Stream tags the packet with its application stream index.
	Stream int
	// Bits is the wire size of the packet in bits.
	Bits float64
	// Created is the tick the packet entered the network.
	Created int64
	// Deadline is the tick by which delivery was required (0 = none).
	Deadline int64
	// Frame groups packets belonging to one application frame or record
	// (0 = unframed); sinks use it to detect frame completion for jitter
	// accounting.
	Frame uint64
	// Delivered is the tick the packet reached its sink (set on delivery).
	Delivered int64

	path *Path
	hop  int

	// arena is the pool the packet was acquired from (nil when the packet
	// was constructed directly); releases route back to it regardless of
	// which shard performs them. pooled guards against double release.
	arena  *Arena
	pooled bool
}

// String renders a short description for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d stream=%d bits=%.0f hop=%d}", p.ID, p.Stream, p.Bits, p.hop)
}
