package simnet

import "iqpaths/internal/telemetry"

// PathStats counts end-to-end path events.
type PathStats struct {
	Sent           uint64 // packets accepted by the first hop
	Rejected       uint64 // packets refused because the first hop was full
	DeliveredCount uint64
	DeliveredBits  float64
	Dropped        uint64 // packets lost at intermediate hops (queue overflow)
}

// Path is an ordered sequence of links from an overlay source to a sink.
// Schedulers talk to paths: Send to inject, TakeDelivered to collect, and
// AvailMbps/Blocked to observe current conditions.
type Path struct {
	id        int
	name      string
	links     []*Link
	net       *Network
	delivered []*Packet
	stats     PathStats

	// metric handles, nil until the network has a telemetry registry.
	mDelivered *telemetry.Counter
	mRejected  *telemetry.Counter
	mDropped   *telemetry.Counter
}

// ID returns the path's index within its network.
func (p *Path) ID() int { return p.id }

// Name returns the path's label.
func (p *Path) Name() string { return p.name }

// Links returns the path's links in order.
// testonly: emulab's tests check the hops a topology builder chained.
func (p *Path) Links() []*Link { return p.links }

// Send injects a packet at the path's first hop. It returns false when the
// first hop's queue is full — the "blocked path" condition PGOS reacts to.
func (p *Path) Send(pkt *Packet) bool {
	pkt.path = p
	pkt.hop = 0
	if !p.links[0].enqueue(pkt) {
		p.stats.Rejected++
		if p.mRejected != nil {
			p.mRejected.Inc()
		}
		return false
	}
	p.stats.Sent++
	return true
}

// Blocked reports whether the path currently refuses new packets.
// testonly: faults' tests check that an outage blocks the path.
func (p *Path) Blocked() bool { return p.links[0].Full() }

// AvailMbps returns the path's bottleneck available bandwidth from the
// most recent tick: the minimum over its links of capacity − cross.
func (p *Path) AvailMbps() float64 {
	min := p.links[0].AvailMbps()
	for _, l := range p.links[1:] {
		if v := l.AvailMbps(); v < min {
			min = v
		}
	}
	return min
}

// QueuedPackets returns the total packets queued along the path.
func (p *Path) QueuedPackets() int {
	n := 0
	for _, l := range p.links {
		n += l.QueueLen()
	}
	return n
}

// DrainDelivered invokes fn (which may be nil) on each packet delivered
// since the last drain, in delivery order, then releases the packets to
// the pool and reuses the buffer. This is the zero-allocation
// alternative to TakeDelivered for callers that only account deliveries:
// fn must not retain the packet past its invocation.
func (p *Path) DrainDelivered(fn func(*Packet)) {
	if len(p.delivered) == 0 {
		return
	}
	for _, pkt := range p.delivered {
		p.stats.DeliveredCount++
		p.stats.DeliveredBits += pkt.Bits
		if fn != nil {
			fn(pkt)
		}
		ReleasePacket(pkt)
	}
	if p.mDelivered != nil {
		p.mDelivered.Add(uint64(len(p.delivered)))
	}
	for i := range p.delivered {
		p.delivered[i] = nil
	}
	p.delivered = p.delivered[:0]
}

// TakeDelivered returns the packets delivered since the last call and
// clears the buffer. Callers own the returned slice (and the packets,
// which are never returned to the pool).
func (p *Path) TakeDelivered() []*Packet {
	out := p.delivered
	p.delivered = nil
	for _, pkt := range out {
		p.stats.DeliveredCount++
		p.stats.DeliveredBits += pkt.Bits
	}
	if p.mDelivered != nil && len(out) > 0 {
		p.mDelivered.Add(uint64(len(out)))
	}
	return out
}

// Stats returns a copy of the path counters. Delivery counters reflect
// packets already collected via TakeDelivered.
// testonly: faults' tests read the path counters around an outage.
func (p *Path) Stats() PathStats { return p.stats }
