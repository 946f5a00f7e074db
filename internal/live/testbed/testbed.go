// Package testbed emulates per-link capacity, cross traffic, and loss on
// 127.0.0.1: each overlay link of an experiment topology becomes one UDP
// relay process that forwards datagrams to its next hop through a
// token-bucket (fluid) pacer whose rate is the link's available bandwidth
// — capacity minus a sinusoidally varying cross-traffic load, the same
// shape internal/simnet uses in virtual time. Running the Fig. 8 topology
// live is then N relay processes plus the source and sink daemons, all on
// localhost.
//
// Shaping is applied to the forward (client → target) direction only; the
// reverse direction (acks, probe replies) is forwarded unshaped, matching
// the experiments where the bottleneck is the data direction.
package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"iqpaths/internal/transport"
)

// LinkShape describes one emulated link.
type LinkShape struct {
	// CapacityMbps is the link's raw capacity.
	CapacityMbps float64
	// CrossMbps is the mean competing cross-traffic load; the forwarding
	// rate is CapacityMbps minus the instantaneous cross load.
	CrossMbps float64
	// CrossAmpMbps modulates the cross load sinusoidally:
	// cross(t) = CrossMbps + CrossAmpMbps·sin(2πt/CrossPeriodSec).
	CrossAmpMbps   float64
	CrossPeriodSec float64
	// LossProb drops each forwarded datagram independently.
	LossProb float64
	// QueuePackets bounds the shaping queue (default 256); arrivals
	// beyond it are dropped, like a router buffer overflowing.
	QueuePackets int
	// DelayMs adds fixed one-way propagation delay to every departure.
	DelayMs float64
}

// CrossAt returns the instantaneous cross-traffic load at time t (seconds
// since the relay started), floored at zero.
func (s LinkShape) CrossAt(tSec float64) float64 {
	cross := s.CrossMbps
	if s.CrossAmpMbps != 0 && s.CrossPeriodSec > 0 {
		cross += s.CrossAmpMbps * math.Sin(2*math.Pi*tSec/s.CrossPeriodSec)
	}
	if cross < 0 {
		return 0
	}
	return cross
}

// AvailMbps returns the bandwidth left for forwarded traffic at time t.
func (s LinkShape) AvailMbps(tSec float64) float64 {
	avail := s.CapacityMbps - s.CrossAt(tSec)
	if avail < 0 {
		return 0
	}
	return avail
}

// minRateMbps keeps a fully-crossed link draining (slowly) instead of
// stalling the pacer forever.
const minRateMbps = 0.01

// departure computes the fluid-pacer departure time (seconds) for a
// packet of the given size arriving at arrival, and the pacer's new
// next-free time: transmission starts when both the packet has arrived
// and the previous one has finished, and takes bits/avail seconds.
func departure(arrival, nextFree, bits, availMbps float64) (dep, newNextFree float64) {
	if availMbps < minRateMbps {
		availMbps = minRateMbps
	}
	start := arrival
	if nextFree > start {
		start = nextFree
	}
	dep = start + bits/(availMbps*1e6)
	return dep, dep
}

// Fig8Shapes returns the two overlay-path link shapes of the localhost
// Fig. 8 reproduction: path A carries light cross traffic (~32 Mbps
// available), path B heavy oscillating cross traffic plus loss (~6 Mbps
// available) — the asymmetry that makes CDF-guided mapping matter.
func Fig8Shapes() (a, b LinkShape) {
	a = LinkShape{CapacityMbps: 40, CrossMbps: 8, CrossAmpMbps: 2, CrossPeriodSec: 5}
	b = LinkShape{CapacityMbps: 40, CrossMbps: 34, CrossAmpMbps: 3, CrossPeriodSec: 7, LossProb: 0.01}
	return a, b
}

// Stats counts a relay's forwarding decisions.
type Stats struct {
	// Forwarded datagrams left the pacer toward the target.
	Forwarded uint64
	// Dropped datagrams found the shaping queue full.
	Dropped uint64
	// Lost datagrams were discarded by the loss process.
	Lost uint64
	// Returned datagrams flowed target → client (unshaped).
	Returned uint64
}

// Relay is one emulated link: a UDP forwarder shaping client → target
// traffic through a LinkShape. Each distinct client address gets its own
// outbound socket so return traffic finds its way back (NAT-style). Flows
// are keyed by the client's unmapped AddrPort, a value, so forwarding a
// datagram allocates nothing: receive buffers and queued copies are
// pooled wire buffers and the pacer reuses one timer.
type Relay struct {
	shape  LinkShape
	in     *net.UDPConn
	bc     *transport.BatchConn
	target *net.UDPAddr
	start  time.Time

	mu     sync.Mutex
	flows  map[netip.AddrPort]*relayFlow
	stats  Stats
	rng    *rand.Rand
	closed bool

	queue chan queuedDatagram
	done  chan struct{}
	wg    sync.WaitGroup
}

type relayFlow struct {
	client netip.AddrPort
	out    *net.UDPConn
}

// queuedDatagram is one shaped datagram in flight through the pacer. Its
// bytes live in a pooled wire buffer owned by the queue entry; the pacer
// releases the buffer after the forward write, and Close drains whatever
// is still queued.
type queuedDatagram struct {
	wb      *transport.WireBuf
	flow    *relayFlow
	arrival float64 // seconds since relay start
}

// relayBatch bounds the datagrams one relay read syscall may deliver.
const relayBatch = 16

// relayMaxDatagram sizes relay receive buffers (UDP's practical ceiling).
const relayMaxDatagram = 64 * 1024

// NewRelay listens on listenAddr (e.g. "127.0.0.1:0") and forwards to
// target through shape. seed fixes the loss process for reproducibility.
func NewRelay(listenAddr, target string, shape LinkShape, seed int64) (*Relay, error) {
	if shape.QueuePackets <= 0 {
		shape.QueuePackets = 256
	}
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("testbed: listen addr: %w", err)
	}
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("testbed: target addr: %w", err)
	}
	in, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	bc, err := transport.NewBatchConn(in)
	if err != nil {
		in.Close()
		return nil, err
	}
	r := &Relay{
		shape:  shape,
		in:     in,
		bc:     bc,
		target: taddr,
		start:  time.Now(),
		flows:  map[netip.AddrPort]*relayFlow{},
		rng:    rand.New(rand.NewSource(seed)),
		queue:  make(chan queuedDatagram, shape.QueuePackets),
		done:   make(chan struct{}),
	}
	r.wg.Add(2)
	go r.readLoop()
	go r.paceLoop()
	return r, nil
}

// Addr returns the relay's client-facing address (for "127.0.0.1:0"
// listeners, the kernel-assigned port).
func (r *Relay) Addr() string { return r.in.LocalAddr().String() }

// Stats returns a snapshot of the forwarding counters.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close stops the relay and its per-flow sockets.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	flows := make([]*relayFlow, 0, len(r.flows))
	for _, f := range r.flows {
		flows = append(flows, f)
	}
	r.mu.Unlock()
	close(r.done)
	err := r.in.Close()
	for _, f := range flows {
		f.out.Close()
	}
	r.wg.Wait()
	// Only now can nothing enqueue: readLoop may have admitted a datagram
	// after paceLoop returned, so drain here, not in paceLoop.
	for {
		select {
		case q := <-r.queue:
			transport.ReleaseWire(q.wb)
		default:
			return err
		}
	}
}

// now returns seconds since the relay started.
func (r *Relay) now() float64 { return time.Since(r.start).Seconds() }

// readLoop receives client datagrams in recvmmsg batches, applies loss
// and queue admission per datagram, and hands survivors to the pacer. A
// striping burst arriving while the pacer holds the link costs one
// syscall, not one per datagram.
func (r *Relay) readLoop() {
	defer r.wg.Done()
	dgs := make([]transport.Datagram, relayBatch)
	bufs := make([]*transport.WireBuf, relayBatch)
	for i := range dgs {
		bufs[i] = transport.AcquireWire()
		dgs[i].Buf = bufs[i].Grow(relayMaxDatagram)
	}
	defer func() {
		for _, wb := range bufs {
			transport.ReleaseWire(wb)
		}
	}()
	for {
		n, err := r.bc.ReadBatch(dgs)
		if err != nil {
			return // socket closed
		}
		for i := 0; i < n; i++ {
			r.admit(dgs[i].Buf[:dgs[i].N], dgs[i].Addr)
		}
	}
}

// admit runs one datagram through loss and queue admission, copying the
// survivors into their own pooled buffer (the receive buffers are reused
// by the next ReadBatch).
func (r *Relay) admit(data []byte, from netip.AddrPort) {
	flow, err := r.flowFor(from)
	if err != nil {
		return
	}
	r.mu.Lock()
	lost := r.shape.LossProb > 0 && r.rng.Float64() < r.shape.LossProb
	if lost {
		r.stats.Lost++
	}
	r.mu.Unlock()
	if lost {
		return
	}
	wb := transport.AcquireWire()
	wb.B = append(wb.B[:0], data...)
	select {
	case r.queue <- queuedDatagram{wb: wb, flow: flow, arrival: r.now()}:
	default:
		transport.ReleaseWire(wb)
		r.mu.Lock()
		r.stats.Dropped++
		r.mu.Unlock()
	}
}

// paceLoop drains the shaping queue at the link's available rate. One
// timer serves every departure wait: a time.After per datagram allocated
// a timer and its channel each time.
func (r *Relay) paceLoop() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	nextFree := 0.0
	for {
		select {
		case <-r.done:
			return
		case q := <-r.queue:
			bits := float64(len(q.wb.B)+datagramIPOverhead) * 8
			var dep float64
			dep, nextFree = departure(q.arrival, nextFree, bits, r.shape.AvailMbps(q.arrival))
			dep += r.shape.DelayMs / 1e3
			if wait := dep - r.now(); wait > 0 {
				timer.Reset(time.Duration(wait * float64(time.Second)))
				select {
				case <-r.done:
					transport.ReleaseWire(q.wb)
					return
				case <-timer.C: // drained, so the next Reset starts clean
				}
			}
			_, err := q.flow.out.Write(q.wb.B)
			transport.ReleaseWire(q.wb)
			if err == nil {
				r.mu.Lock()
				r.stats.Forwarded++
				r.mu.Unlock()
			}
		}
	}
}

// datagramIPOverhead charges each datagram the IP+UDP header cost a real
// link would carry (20 + 8 bytes).
const datagramIPOverhead = 28

// flowFor returns (creating if needed) the per-client flow, whose
// outbound socket also carries the unshaped reverse direction.
func (r *Relay) flowFor(from netip.AddrPort) (*relayFlow, error) {
	key := netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	r.mu.Lock()
	if f, ok := r.flows[key]; ok {
		r.mu.Unlock()
		return f, nil
	}
	r.mu.Unlock()

	out, err := net.DialUDP("udp", nil, r.target)
	if err != nil {
		return nil, err
	}
	f := &relayFlow{client: from, out: out}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		out.Close()
		return nil, net.ErrClosed
	}
	if existing, ok := r.flows[key]; ok { // lost the race
		r.mu.Unlock()
		out.Close()
		return existing, nil
	}
	r.flows[key] = f
	r.mu.Unlock()

	r.wg.Add(1)
	go r.reverseLoop(f)
	return f, nil
}

// reverseLoop forwards target → client traffic unshaped.
func (r *Relay) reverseLoop(f *relayFlow) {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, err := f.out.Read(buf)
		if err != nil {
			return // flow socket closed
		}
		if _, err := r.in.WriteToUDPAddrPort(buf[:n], f.client); err != nil {
			return
		}
		r.mu.Lock()
		r.stats.Returned++
		r.mu.Unlock()
	}
}
