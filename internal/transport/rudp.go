package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// RUDP constants.
const (
	// rudpWindow is the sender's in-flight window in packets. It also
	// bounds the receiver: a data sequence at or beyond recvNext+rudpWindow
	// cannot come from a conforming sender and is dropped.
	rudpWindow = 256
	// rudpWindowBytes additionally bounds the in-flight payload bytes, so
	// large-block senders cannot burst past receiver socket buffers (UDP
	// has no congestion control of its own).
	rudpWindowBytes = 256 * 1024
	// rudpMaxDatagram bounds one datagram (header + payload).
	rudpMaxDatagram = 64 * 1024
	// rudpAckEvery acknowledges every k-th in-order packet (plus any
	// out-of-order arrival immediately).
	rudpAckEvery = 4
	// rudpMaxRetries gives up the connection after this many
	// retransmissions of the same packet.
	rudpMaxRetries = 20
)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// control payloads.
var (
	ctlSyn    = []byte("SYN")
	ctlSynAck = []byte("SYN-ACK")
	ctlFin    = []byte("FIN")
)

// pendingPkt is one slot of the sender's in-flight ring. A slot is free
// when wb is nil.
type pendingPkt struct {
	wb      *WireBuf // pooled backing store of data; released on ack/close
	data    []byte
	sentAt  time.Time
	retries int
	// writing marks the first transmission in progress outside the lock;
	// an ack landing meanwhile sets acked and defers the pool release to
	// the writer, so a buffer never returns to the pool mid-syscall.
	writing bool
	acked   bool
}

// retire releases p's pooled buffer and frees its slot, unless a writer
// still holds the buffer: the slot then stays occupied until the writer
// finishes and releases it. Callers hold c.mu.
func (p *pendingPkt) retire() {
	if p.writing {
		p.acked = true
		return
	}
	ReleaseWire(p.wb)
	*p = pendingPkt{}
}

// RUDPConn is a reliable, ordered message connection over UDP: sliding
// window, cumulative acks, Jacobson RTO with exponential backoff, and
// in-order delivery — the RUDP module of the IQ-Paths middleware stack
// (Fig. 2), whose acks double as the bandwidth/RTT measurement hooks.
//
// The sender keeps its in-flight packets in a fixed ring indexed by
// seq % rudpWindow. Acks are cumulative and admission stops at
// rudpWindow packets, so the in-flight set is always the contiguous range
// [lowest, nextSeq), and no two of its sequences share a slot.
type RUDPConn struct {
	write func([]byte) error // socket write bound to the peer
	// writev (optional) transmits several datagrams as one mmsg batch;
	// nil falls back to per-datagram write calls. raddr is the destination
	// stamped on those datagrams (the zero AddrPort on a connected socket).
	writev func([]Datagram) (int, error)
	raddr  netip.AddrPort
	peer   string
	rtt    *RTTEstimator
	tm     *connMetrics
	mon    *retxMonitor

	mu            sync.Mutex
	sendCond      *sync.Cond
	nextSeq       uint64
	lowest        uint64 // lowest unacked seq
	window        [rudpWindow]pendingPkt
	inFlightBytes int
	closed        bool

	// sendMu serializes SendBatch callers over its reused scratch.
	sendMu   sync.Mutex
	sendPkts []*pendingPkt
	sendDgs  []Datagram

	// ctlMu guards ctlBuf, the connection-owned wire image of acks, probes
	// and raw frames, from marshal through write.
	ctlMu  sync.Mutex
	ctlBuf []byte

	recvNext uint64
	ooo      map[uint64]*Message
	recvQ    chan *Message
	// ackPending marks in-order deliveries that did not reach an ack
	// boundary; the retransmit monitor flushes them as a delayed ack.
	ackPending bool

	// stats
	retransmits     uint64
	fastRetransmits uint64
	acksSent        uint64
	ackedSeq        uint64  // highest cumulatively acknowledged sequence
	ackedBits       float64 // payload bits confirmed delivered by acks
	dupAcks         int     // consecutive duplicate cumulative acks

	probeEcho chan uint64

	// rawHandler (if set) receives KindTrain messages — the unreliable
	// probe-train substrate of the live runtime. Guarded by rawMu, not mu:
	// the handler runs on the demux goroutine and must not contend with
	// the send path.
	rawMu      sync.RWMutex
	rawHandler func(*Message)

	closeOnce sync.Once
	closeFn   func()
	done      chan struct{}
}

func newRUDPConn(peer string, write func([]byte) error, closeFn func()) *RUDPConn {
	c := &RUDPConn{
		write:     write,
		peer:      peer,
		rtt:       NewRTTEstimator(0, 0),
		tm:        acquireConnMetrics(),
		nextSeq:   1,
		lowest:    1,
		recvNext:  1,
		ooo:       map[uint64]*Message{},
		recvQ:     make(chan *Message, 1024),
		probeEcho: make(chan uint64, 8),
		closeFn:   closeFn,
		done:      make(chan struct{}),
	}
	c.sendCond = sync.NewCond(&c.mu)
	c.mon = newRetxMonitor(c)
	go c.mon.run()
	return c
}

// writeAll transmits the datagrams, as one batch where the socket supports
// it. Errors are advisory (retransmission covers losses).
func (c *RUDPConn) writeAll(dgs []Datagram) {
	if c.writev != nil {
		_, _ = c.writev(dgs)
		return
	}
	for i := range dgs {
		_ = c.write(dgs[i].Buf)
	}
}

// writeCtl marshals m into the connection's control buffer and writes it.
func (c *RUDPConn) writeCtl(m *Message) error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	b, err := m.appendMarshal(c.ctlBuf[:0])
	if err != nil {
		return err
	}
	c.ctlBuf = b
	return c.write(b)
}

// RemoteAddr implements Conn.
func (c *RUDPConn) RemoteAddr() string { return c.peer }

// RTT returns the connection's smoothed round-trip estimate.
func (c *RUDPConn) RTT() time.Duration { return c.rtt.SRTT() }

// Retransmits returns the number of retransmitted packets so far.
func (c *RUDPConn) Retransmits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retransmits
}

// FastRetransmits returns the number of duplicate-ack-triggered
// retransmissions.
func (c *RUDPConn) FastRetransmits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fastRetransmits
}

// AckedBits returns the total payload bits the peer has cumulatively
// acknowledged — the sender-side goodput measure feeding live monitors.
func (c *RUDPConn) AckedBits() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackedBits
}

// SentSeq returns the highest data/control sequence number consumed by
// Send so far — the sender-side packet count live monitors pair with
// Retransmits to estimate a loss rate.
func (c *RUDPConn) SentSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq - 1
}

// SetRawHandler installs fn as the receiver of KindTrain messages.
// fn runs on the connection's demux goroutine and must be fast and
// non-blocking; nil uninstalls. Raw messages bypass sequencing, acks, and
// Recv entirely.
func (c *RUDPConn) SetRawHandler(fn func(*Message)) {
	c.rawMu.Lock()
	c.rawHandler = fn
	c.rawMu.Unlock()
}

// WriteRaw marshals and transmits m exactly once, with no reliability:
// no sequence number, no ack, no retransmission. Probe trains use it so
// their wire timing reflects the path, not the ARQ machinery.
func (c *RUDPConn) WriteRaw(m *Message) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	return c.writeCtl(m)
}

// InFlight returns the number of unacknowledged packets.
func (c *RUDPConn) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.nextSeq - c.lowest)
}

// inFlight returns seq's ring slot, or nil once seq is acked (or was
// never sent). Callers hold c.mu.
func (c *RUDPConn) inFlight(seq uint64) *pendingPkt {
	if seq < c.lowest || seq >= c.nextSeq {
		return nil
	}
	return &c.window[seq%rudpWindow]
}

// windowFull reports whether the send window blocks admission: the ring
// is full, the byte budget is spent, or the next slot still belongs to an
// acked packet whose first write has not returned. Callers hold c.mu.
func (c *RUDPConn) windowFull() bool {
	return c.nextSeq-c.lowest >= rudpWindow || c.inFlightBytes >= rudpWindowBytes ||
		c.window[c.nextSeq%rudpWindow].wb != nil
}

// waitWindow blocks until the window admits a packet, or reports
// ErrClosed. Callers hold c.mu.
func (c *RUDPConn) waitWindow() error {
	if !c.closed && c.windowFull() {
		c.tm.sendBlocks.Inc()
	}
	for !c.closed && c.windowFull() {
		c.sendCond.Wait()
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// admit marshals m into a pooled buffer, consumes the next sequence
// number, and files the packet in its ring slot with its retransmit
// deadline in the timer wheel. Callers hold c.mu, must have seen a
// window with room, and must clear the packet's writing flag (via
// finishWrite) once the bytes are on the wire.
func (c *RUDPConn) admit(m *Message) (*pendingPkt, error) {
	// Marshal before consuming the sequence number: a consumed-but-never-
	// transmitted seq would leave a permanent hole the receiver's recvNext
	// can never cross, stranding every later message in its out-of-order
	// map.
	seq := c.nextSeq
	wire := *m
	wire.Seq = seq
	wb := AcquireWire()
	data, err := wire.appendMarshal(wb.B[:0])
	if err != nil {
		ReleaseWire(wb)
		return nil, err
	}
	wb.B = data
	c.nextSeq++
	now := time.Now()
	p := &c.window[seq%rudpWindow]
	*p = pendingPkt{wb: wb, data: data, sentAt: now, writing: true}
	c.inFlightBytes += len(data)
	c.mon.schedule(seq, now.Add(c.rtt.RTO()).UnixNano())
	return p, nil
}

// finishWrite clears the writing marks set by admit, releasing the
// buffers (and freeing the slots) of packets whose acks raced the
// transmission.
func (c *RUDPConn) finishWrite(pkts ...*pendingPkt) {
	c.mu.Lock()
	freed := false
	for _, p := range pkts {
		p.writing = false
		if p.acked {
			ReleaseWire(p.wb)
			*p = pendingPkt{}
			freed = true
		}
	}
	if freed {
		c.sendCond.Broadcast()
	}
	c.mu.Unlock()
}

// Send implements Conn: it blocks while the send window is full and
// returns once the message is transmitted (not yet acknowledged).
func (c *RUDPConn) Send(m *Message) error {
	c.mu.Lock()
	if err := c.waitWindow(); err != nil {
		c.mu.Unlock()
		return err
	}
	p, err := c.admit(m)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.tm.sent.Inc()
	c.tm.inFlight.Add(1)
	werr := c.write(p.data)
	c.finishWrite(p)
	return werr
}

// SendBatch transmits msgs with exactly Send's reliability and windowing,
// but flushes each admitted run toward the socket as one mmsg batch —
// the pacing-aware write path: a scheduler tick's packets for this
// destination become one syscall instead of one each. Like Send it blocks
// while the window is full, so a batch larger than the free window flushes
// in windowed chunks.
func (c *RUDPConn) SendBatch(msgs []*Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	i := 0
	for i < len(msgs) {
		pkts, dgs := c.sendPkts[:0], c.sendDgs[:0]
		c.mu.Lock()
		if err := c.waitWindow(); err != nil {
			c.mu.Unlock()
			return err
		}
		var aerr error
		for i < len(msgs) && !c.windowFull() {
			p, err := c.admit(msgs[i])
			if err != nil {
				aerr = err
				break
			}
			dgs = append(dgs, Datagram{Buf: p.data, Addr: c.raddr})
			pkts = append(pkts, p)
			i++
		}
		c.mu.Unlock()
		c.sendPkts, c.sendDgs = pkts, dgs
		c.tm.sent.Add(uint64(len(pkts)))
		c.tm.inFlight.Add(float64(len(pkts)))
		c.writeAll(dgs)
		c.finishWrite(pkts...)
		if aerr != nil {
			return aerr
		}
	}
	return nil
}

// Recv implements Conn: messages are delivered reliably and in order.
func (c *RUDPConn) Recv() (*Message, error) {
	m, ok := <-c.recvQ
	if !ok {
		return nil, ErrClosed
	}
	return m, nil
}

// Close implements Conn.
func (c *RUDPConn) Close() error {
	c.closeOnce.Do(func() {
		_ = c.writeCtl(&Message{Kind: KindControl, Payload: ctlFin})
		c.mu.Lock()
		c.closed = true
		// Retire the in-flight gauge contribution of packets that will
		// never be acked; lowest jumps to nextSeq so a late ack cannot
		// double-decrement, and the pooled wire buffers go home.
		c.tm.inFlight.Add(-float64(c.nextSeq - c.lowest))
		for seq := c.lowest; seq < c.nextSeq; seq++ {
			c.window[seq%rudpWindow].retire()
		}
		c.lowest = c.nextSeq
		c.inFlightBytes = 0
		c.sendCond.Broadcast()
		c.mu.Unlock()
		close(c.done)
		close(c.recvQ)
		if c.closeFn != nil {
			c.closeFn()
		}
	})
	return nil
}

// handle processes one datagram addressed to this connection. m is a
// parsed view whose payload aliases the receive buffer: it is valid only
// for this call, so whatever outlives it (delivered data, raw frames) is
// cloned, and an ack costs no allocation at all.
func (c *RUDPConn) handle(m *Message) {
	switch m.Kind {
	case KindAck:
		c.onAck(m.Seq)
	case KindData:
		c.onData(m)
	case KindProbe:
		if m.Stream == 0 {
			// Request: echo it back marked as a reply.
			_ = c.writeCtl(&Message{Kind: KindProbe, Seq: m.Seq, Stream: 1})
			return
		}
		// Reply: hand the token to a waiting Probe call.
		select {
		case c.probeEcho <- m.Seq:
		default:
		}
	case KindTrain:
		c.rawMu.RLock()
		fn := c.rawHandler
		c.rawMu.RUnlock()
		if fn != nil {
			fn(m.clone())
		}
	case KindControl:
		if string(m.Payload) == string(ctlFin) {
			_ = c.Close()
			return
		}
		// Application control messages travel through Send and carry a
		// sequence number: they are acked, ordered, and delivered via
		// Recv exactly like data. Handshake frames (SYN/SYN-ACK, and FIN
		// above) are marshaled raw with Seq 0 and never reach the app.
		if m.Seq != 0 {
			c.onData(m)
		}
	}
}

// onAck applies a cumulative ack. An ack at or beyond nextSeq covers a
// sequence this side never sent — forged or corrupt — and is ignored:
// trusting it would walk an unbounded range under c.mu and push lowest
// past nextSeq, so no later packet could ever be acked.
func (c *RUDPConn) onAck(cum uint64) {
	var fastResend *WireBuf
	var acked int
	c.mu.Lock()
	if cum >= c.nextSeq {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	if cum >= c.lowest {
		for seq := c.lowest; seq <= cum; seq++ {
			p := &c.window[seq%rudpWindow]
			if p.retries == 0 { // Karn's rule: no RTT from retransmits
				sample := now.Sub(p.sentAt)
				c.rtt.Observe(sample)
				c.tm.rtt.Observe(sample.Seconds())
			}
			c.ackedBits += float64(len(p.data)-headerLen) * 8
			c.inFlightBytes -= len(p.data)
			p.retire()
			acked++
		}
		c.lowest = cum + 1
		c.dupAcks = 0
	} else if cum+1 == c.lowest {
		// Duplicate cumulative ack: the packet at c.lowest is likely lost.
		// After three duplicates, retransmit it immediately (fast
		// retransmit) instead of waiting out the RTO.
		c.dupAcks++
		if c.dupAcks == 3 {
			if p := c.inFlight(c.lowest); p != nil {
				p.retries++
				p.sentAt = now
				c.retransmits++
				c.fastRetransmits++
				// Copy off the slot's buffer: a later ack may release it
				// before the write below leaves the lock's shadow. The
				// wheel entry re-files itself against the new sentAt.
				fastResend = AcquireWire()
				fastResend.B = append(fastResend.B[:0], p.data...)
			}
			c.dupAcks = 0
		}
	}
	if cum > c.ackedSeq {
		c.ackedSeq = cum
	}
	c.sendCond.Broadcast()
	c.mu.Unlock()
	if acked > 0 {
		c.tm.inFlight.Add(-float64(acked))
	}
	if fastResend != nil {
		c.tm.retx.Inc()
		c.tm.fastRetx.Inc()
		_ = c.write(fastResend.B)
		ReleaseWire(fastResend)
	}
}

// onData sequences one data (or application control) frame. In-order
// arrivals are delivered straight to Recv; only a frame ahead of a gap
// waits in ooo. A sequence at or beyond recvNext+rudpWindow lies outside
// any window a conforming sender can have in flight, so it is dropped
// rather than parked in ooo forever.
func (c *RUDPConn) onData(m *Message) {
	c.mu.Lock()
	if m.Seq < c.recvNext {
		// Duplicate: re-ack so the sender can advance.
		c.mu.Unlock()
		c.sendAck()
		return
	}
	if m.Seq-c.recvNext >= rudpWindow {
		c.mu.Unlock()
		return
	}
	start := c.recvNext
	if m.Seq != c.recvNext {
		if _, dup := c.ooo[m.Seq]; !dup {
			c.ooo[m.Seq] = m.clone()
		}
	} else {
		c.deliver(m.clone())
		for len(c.ooo) > 0 {
			next, ok := c.ooo[c.recvNext]
			if !ok {
				break
			}
			delete(c.ooo, c.recvNext)
			c.deliver(next)
		}
	}
	delivered := int(c.recvNext - start)
	outOfOrder := delivered == 0
	// Ack when the delivered batch [start, recvNext) crossed an ack
	// boundary anywhere — not only when it *ended* on one. A burst of
	// buffered packets delivering at once can straddle a multiple of
	// rudpAckEvery without landing on it; checking only the endpoint
	// skipped those acks.
	crossed := (c.recvNext-1)/rudpAckEvery > (start-1)/rudpAckEvery
	ackDue := outOfOrder || crossed
	if !ackDue && delivered > 0 {
		// Delayed ack: the final packets of a transfer may never reach a
		// boundary. Mark them ack-pending so the retransmit monitor
		// flushes a cumulative ack within one ticker period — well inside
		// the sender's RTO floor — instead of forcing an RTO retransmit
		// and a duplicate-triggered re-ack. The monitor only parks with
		// no ack pending, so only this transition can find it parked.
		if !c.ackPending {
			c.ackPending = true
			c.mon.kick()
		}
	}
	c.mu.Unlock()
	if delivered > 0 {
		c.tm.received.Add(uint64(delivered))
	}
	if ackDue {
		c.sendAck()
	}
}

// deliver advances recvNext past m and queues it for Recv. Callers hold
// c.mu.
func (c *RUDPConn) deliver(m *Message) {
	c.recvNext++
	if !c.closed {
		select {
		case c.recvQ <- m:
		default:
			// Receiver not draining: drop to protect the loop; the ack
			// already covered it, mirroring a full app buffer.
		}
	}
}

func (c *RUDPConn) sendAck() {
	c.mu.Lock()
	cum := c.recvNext - 1
	c.acksSent++
	c.ackPending = false
	c.mu.Unlock()
	c.tm.acksSent.Inc()
	_ = c.writeCtl(&Message{Kind: KindAck, Seq: cum})
}

// Probe measures one RTT sample by sending a probe (Stream 0) and waiting
// for the peer's echo (Stream 1) carrying the same token.
func (c *RUDPConn) Probe(timeout time.Duration) (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	start := time.Now()
	if err := c.writeCtl(&Message{Kind: KindProbe, Seq: token}); err != nil {
		return 0, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case tok := <-c.probeEcho:
			if tok != token {
				continue // stale echo from an earlier timed-out probe
			}
			rtt := time.Since(start)
			c.rtt.Observe(rtt)
			c.tm.rtt.Observe(rtt.Seconds())
			return rtt, nil
		case <-deadline.C:
			return 0, fmt.Errorf("transport: probe timeout after %v", timeout)
		case <-c.done:
			return 0, ErrClosed
		}
	}
}
