package monitor

import "iqpaths/internal/simnet"

// Train measurement constants.
const (
	// trainPackets is the probes per train: at a 10 ms tick and tens of
	// Mbps available this spreads the train over ~5–40 ticks, keeping the
	// ±1-tick dispersion quantization under ~10 %.
	trainPackets = 400
	// probeBits is the probe packet size (1500 B).
	probeBits = 12000
	// trainTimeoutTicks bounds one measurement (4 s at 10 ms).
	trainTimeoutTicks = 400
	// probeStream tags probe packets, distinct from application streams
	// so delivery accounting can tell them apart.
	probeStream = -1
)

// Train is a packet-train dispersion probe of one simnet path — the
// pathload-class measurement the paper's monitors are fed by (Jain &
// Dovrolis [12][19][20]) — and, like Sampler, a feed of the path's
// monitor. A short train is injected at line rate; because cross traffic
// consumes its share of the bottleneck first, the train drains at the
// leftover (available) rate, so the spread of its arrivals measures it:
//
//	avail ≈ train bits / (t_last − t_first)
//
// A Train never steps the network. The loop that owns the clock calls
// Start, passes the path's deliveries through Take, and calls Settle
// after every step until the train settles.
type Train struct {
	net     *simnet.Network
	path    *simnet.Path
	mon     *PathMonitor
	firstID uint64 // packet ID of the train's first probe
	sent    int
	got     int
	first   int64 // delivery tick of the first and last probe, -1 before
	last    int64
	// deadline is the tick at which an incomplete train settles.
	deadline int64
	active   bool
}

// NewTrain wires a dispersion probe of path on net to m.
func NewTrain(net *simnet.Network, path *simnet.Path, m *PathMonitor) *Train {
	return &Train{net: net, path: path, mon: m}
}

// Start injects one train at line rate — as many probes as the path's
// first hop accepts, up to trainPackets — and reports whether it is in
// flight. Fewer than two probes measure nothing, so such a train does not
// start; Take retires its one probe when it arrives.
func (tr *Train) Start() bool {
	tr.sent, tr.got, tr.first, tr.last = 0, 0, -1, -1
	tr.deadline = tr.net.Tick() + trainTimeoutTicks
	for tr.sent < trainPackets {
		p := tr.net.NewPacket(probeStream, probeBits)
		if tr.sent == 0 {
			tr.firstID = p.ID
		}
		if !tr.path.Send(p) {
			simnet.ReleasePacket(p) // first hop full: measure what went
			break
		}
		tr.sent++
	}
	tr.active = tr.sent >= 2
	return tr.active
}

// Active reports whether a train is in flight.
func (tr *Train) Active() bool { return tr.active }

// Take claims a delivery of the path if it is a probe — of the train in
// flight, or a straggler of one that timed out — and retires it to the
// packet pool. It reports whether it took pkt; the caller owns every
// other delivery.
func (tr *Train) Take(pkt *simnet.Packet) bool {
	if pkt.Stream != probeStream {
		return false
	}
	if tr.active && pkt.ID >= tr.firstID && pkt.ID < tr.firstID+uint64(tr.sent) {
		if tr.first < 0 {
			tr.first = pkt.Delivered
		}
		tr.last = pkt.Delivered
		tr.got++
	}
	simnet.ReleasePacket(pkt)
	return true
}

// Settle ends the train in flight once all its probes have arrived or
// its timeout has passed, feeding the monitor the measured available
// bandwidth (none when fewer than two probes arrived: a saturated or
// broken path), and reports whether no train is in flight. Call it after
// each step, once the step's deliveries went through Take.
func (tr *Train) Settle() bool {
	if !tr.active {
		return true
	}
	if tr.got < tr.sent && tr.net.Tick() < tr.deadline {
		return false
	}
	tr.active = false
	if tr.got >= 2 {
		// The train occupied the bottleneck for (last − first + 1) ticks
		// of service: deliveries land at the end of each serving tick, so
		// the first tick's service is part of the spread.
		spreadSec := float64(tr.last-tr.first+1) * tr.net.TickSeconds()
		tr.mon.ObserveBandwidth(float64(tr.got) * probeBits / spreadSec / 1e6)
	}
	return true
}
