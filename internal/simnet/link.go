package simnet

import (
	"math/rand"

	"iqpaths/internal/telemetry"
	"iqpaths/internal/trace"
)

// LinkConfig describes one emulated link.
type LinkConfig struct {
	// Name labels the link in stats and logs (e.g. "N-3:N-5").
	Name string
	// CapacityMbps is the raw link capacity.
	CapacityMbps float64
	// DelayTicks is the hop latency in whole ticks, counted from the tick
	// in which a packet finishes transmitting to its arrival at the next
	// hop. The effective minimum is 1 tick (a packet finishing in tick T
	// is visible downstream at T+1 even with DelayTicks 0).
	DelayTicks int
	// QueueLimit bounds the FIFO queue in packets; excess arrivals drop.
	// Zero means the default of 1000.
	QueueLimit int
	// LossProb is an independent per-packet corruption probability applied
	// at transmission (0 disables).
	LossProb float64
	// Cross supplies the cross-traffic demand in Mbps, one sample per
	// tick; nil means an idle link.
	Cross trace.Generator
	// Process, when non-nil, is invoked on every packet arriving at the
	// far end of this link — the overlay's "in-flight" processing hook
	// (filtering, downsampling, compression at router daemons). Returning
	// false consumes the packet (counted in Stats.Processed; the emulator
	// releases it back to the packet pool, so the hook must not retain a
	// reference to a packet it consumes). The hook may also mutate the
	// packet (e.g. shrink Bits to model compression) before it continues
	// to the next hop.
	Process func(*Packet) bool
}

// LinkStats counts what a link did since creation.
type LinkStats struct {
	Transmitted uint64 // packets fully transmitted
	QueueDrops  uint64 // packets dropped on enqueue (queue full)
	LossDrops   uint64 // packets dropped by random loss
	Processed   uint64 // packets consumed by the in-flight Process hook
	BitsSent    float64
}

// Link is one emulated hop. Overlay packets share it in FIFO order and
// drain against the capacity left over by cross traffic each tick.
type Link struct {
	cfg   LinkConfig
	net   *Network
	queue []*Packet
	// qhead indexes the first live packet in queue: dequeues advance it
	// instead of re-slicing, so the backing array is reused rather than
	// reallocated as the slice window slides (amortized-O(1), zero-alloc
	// steady state).
	qhead int
	// headSent tracks how many bits of the head-of-line packet have been
	// transmitted so far (packets may straddle ticks).
	headSent float64
	// delayRing holds packets in flight, indexed by arrival tick modulo
	// the ring length.
	delayRing [][]*Packet
	// availMbps is the bandwidth left after cross traffic on the last
	// Step — the quantity a pathload-style monitor estimates.
	availMbps float64
	stats     LinkStats
	rng       *rand.Rand

	// Runtime fault state (mutated by internal/faults between ticks; the
	// static LinkConfig stays the healthy baseline). capScale multiplies
	// the configured capacity, down forces the capacity to zero while the
	// queue and in-flight ring stay intact, and lossProb overrides
	// LinkConfig.LossProb.
	capScale float64
	down     bool
	lossProb float64

	// metric handles, nil until the network has a telemetry registry.
	mUtil        *telemetry.Histogram
	mTransmitted *telemetry.Counter
	mQueueDrops  *telemetry.Counter
	mLossDrops   *telemetry.Counter
}

// Name returns the configured link name.
// testonly: emulab's TestBuildDefaults names the links a builder assembled.
func (l *Link) Name() string { return l.cfg.Name }

// SetDown forces the link's transmit capacity to zero (true) or restores
// it (false). Queued and in-flight packets are preserved: a downed link
// stalls rather than drains, which is what fills its queue and raises the
// blocked-path condition PGOS reacts to.
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports whether the link is currently forced down.
// testonly: faults' tests check that a scripted outage took the link down
// and back up.
func (l *Link) IsDown() bool { return l.down }

// SetCapacityScale sets a runtime multiplier on the configured capacity
// (1 = healthy, 0.25 = degraded to a quarter). Negative values clamp to 0.
func (l *Link) SetCapacityScale(s float64) {
	if s < 0 {
		s = 0
	}
	l.capScale = s
}

// SetLossProb overrides the per-packet loss probability at runtime,
// clamped to [0, 1]. The configured LinkConfig.LossProb is the baseline a
// loss storm recovers to.
func (l *Link) SetLossProb(p float64) {
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	l.lossProb = p
}

// LossProb returns the link's current per-packet loss probability.
// testonly: faults' tests check the loss probability a scripted loss storm
// applied.
func (l *Link) LossProb() float64 { return l.lossProb }

// AvailMbps returns capacity − cross traffic from the most recent tick.
func (l *Link) AvailMbps() float64 { return l.availMbps }

// QueueLen returns the number of packets waiting on the link.
func (l *Link) QueueLen() int { return len(l.queue) - l.qhead }

// Full reports whether the queue is at its limit (the link is "blocked"
// in PGOS's terms).
func (l *Link) Full() bool { return l.QueueLen() >= l.cfg.QueueLimit }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// enqueue appends a packet, honoring the queue bound.
func (l *Link) enqueue(p *Packet) bool {
	if l.Full() {
		l.stats.QueueDrops++
		if l.mQueueDrops != nil {
			l.mQueueDrops.Inc()
		}
		return false
	}
	l.queue = append(l.queue, p)
	return true
}

// step transmits one tick's worth of traffic.
func (l *Link) step() {
	cross := 0.0
	if l.cfg.Cross != nil {
		cross = l.cfg.Cross.Next()
	}
	capacity := l.cfg.CapacityMbps * l.capScale
	if l.down {
		capacity = 0
	}
	avail := capacity - cross
	if avail < 0 {
		avail = 0
	}
	l.availMbps = avail
	budget := avail * l.net.tickSeconds * 1e6 // bits this tick
	budget0 := budget

	for budget > 0 && l.QueueLen() > 0 {
		head := l.queue[l.qhead]
		need := head.Bits - l.headSent
		if need > budget {
			l.headSent += budget
			budget = 0
			break
		}
		budget -= need
		l.headSent = 0
		l.queue[l.qhead] = nil
		l.qhead++
		if l.qhead == len(l.queue) {
			l.queue = l.queue[:0]
			l.qhead = 0
		} else if l.qhead > 1024 && l.qhead*2 >= len(l.queue) {
			n := copy(l.queue, l.queue[l.qhead:])
			l.queue = l.queue[:n]
			l.qhead = 0
		}
		if l.lossProb > 0 && l.rng.Float64() < l.lossProb {
			l.stats.LossDrops++
			if l.mLossDrops != nil {
				l.mLossDrops.Inc()
			}
			ReleasePacket(head)
			continue
		}
		l.stats.Transmitted++
		l.stats.BitsSent += head.Bits
		if l.mTransmitted != nil {
			l.mTransmitted.Inc()
		}
		slot := (l.net.tick + int64(l.cfg.DelayTicks)) % int64(len(l.delayRing))
		l.delayRing[slot] = append(l.delayRing[slot], head)
	}
	if l.mUtil != nil {
		if budget0 > 0 {
			l.mUtil.Observe((budget0 - budget) / budget0)
		} else if l.QueueLen() > 0 {
			// Fully starved (cross traffic or a fault consumed the whole
			// budget) with work waiting: the link is saturated, not idle.
			// Skipping the sample here would make the histogram read
			// healthier exactly when the link is at its worst.
			l.mUtil.Observe(1)
		}
	}
}

// arrivals returns the packets whose propagation delay expires at the
// current tick and resets the slot for reuse. The returned slice aliases
// the ring slot's backing array, which is safe because Network.Step
// consumes it fully before any link transmits into the slot again —
// re-slicing to length zero (rather than dropping the array) is what
// keeps steady-state ticks allocation-free.
func (l *Link) arrivals() []*Packet {
	slot := l.net.tick % int64(len(l.delayRing))
	out := l.delayRing[slot]
	l.delayRing[slot] = out[:0]
	return out
}
