// Package pathload implements a packet-train dispersion estimator for
// available bandwidth — the measurement substrate the paper builds on
// (Jain & Dovrolis [12][19][20]). A short probe train is injected at line
// rate; because cross traffic consumes its share of the bottleneck first,
// the train drains at exactly the leftover (available) rate, so the
// spread of the train's arrivals measures it:
//
//	avail ≈ train bits / (t_last − t_first)
//
// This replaces the emulator's oracle (Path.AvailMbps) with an actual
// end-to-end measurement over the same packet substrate, at the realistic
// cost of briefly loading the path; the probing ablation shows PGOS's
// guarantees survive the resulting measurement error.
package pathload

import "iqpaths/internal/simnet"

const (
	// trainPackets is the probes per train: at a 10 ms tick and tens of
	// Mbps available this spreads the train over ~5–40 ticks, keeping the
	// ±1-tick dispersion quantization under ~10 %.
	trainPackets = 400
	// probeBits is the probe packet size (1500 B).
	probeBits = 12000
	// timeoutTicks bounds one measurement (4 s at 10 ms).
	timeoutTicks = 400
	// streamID tags probe packets, distinct from application streams so
	// accounting can discard them.
	streamID = -1
)

// Estimator measures one emulated path by probing.
type Estimator struct {
	net  *simnet.Network
	path *simnet.Path
	// Deliver, when set, receives non-probe packets the estimator drained
	// from the path while its train was in flight, so the caller's
	// delivery accounting stays exact.
	Deliver func(*simnet.Packet)
}

// New builds an estimator for path on net.
func New(net *simnet.Network, path *simnet.Path) *Estimator {
	return &Estimator{net: net, path: path}
}

// Estimate injects one probe train and returns the measured available
// bandwidth in Mbps (0 when the train could not be measured before the
// timeout — a saturated or broken path). It advances the network's
// virtual clock while the train is in flight; callers interleave their
// own traffic generation via onTick, invoked once per tick like
// Network.Run's hook.
func (e *Estimator) Estimate(onTick func(tick int64)) float64 {
	n := trainPackets
	ids := make(map[uint64]bool, n)
	sent := 0
	// Inject at line rate (as fast as the first hop accepts).
	for sent < n {
		p := e.net.NewPacket(streamID, probeBits)
		if !e.path.Send(p) {
			break // first hop full: train truncated, measure what went
		}
		ids[p.ID] = true
		sent++
	}
	if sent < 2 {
		return 0
	}
	var first, last int64 = -1, -1
	got := 0
	deadline := e.net.Tick() + timeoutTicks
	for got < sent && e.net.Tick() < deadline {
		if onTick != nil {
			onTick(e.net.Tick())
		}
		e.net.Step()
		for _, pkt := range e.path.TakeDelivered() {
			if pkt.Stream == streamID && ids[pkt.ID] {
				if first < 0 {
					first = pkt.Delivered
				}
				last = pkt.Delivered
				got++
			} else if pkt.Stream != streamID && e.Deliver != nil {
				e.Deliver(pkt)
			}
		}
	}
	if got < 2 || last < first {
		return 0
	}
	// The train occupied the bottleneck for (last − first + 1) ticks of
	// service (deliveries land at the END of each serving tick, so the
	// first tick's service is part of the duration).
	spreadSec := float64(last-first+1) * e.net.TickSeconds()
	bits := float64(got) * probeBits
	return bits / spreadSec / 1e6
}
