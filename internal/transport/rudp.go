package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// RUDP constants.
const (
	// rudpWindow is the sender's in-flight window in packets.
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

// retire releases p's pooled buffer unless a writer still holds it (the
// writer then releases on completion). Callers hold c.mu.
func (p *pendingPkt) retire() {
	if p.writing {
		p.acked = true
		return
	}
	ReleaseWire(p.wb)
}

// RUDPConn is a reliable, ordered message connection over UDP: sliding
// window, cumulative acks, Jacobson RTO with exponential backoff, and
// in-order delivery — the RUDP module of the IQ-Paths middleware stack
// (Fig. 2), whose acks double as the bandwidth/RTT measurement hooks.
type RUDPConn struct {
	write func([]byte) error // socket write bound to the peer
	// writev (optional) transmits several datagrams as one mmsg batch;
	// nil falls back to per-datagram write calls.
	writev func([][]byte) error
	peer   string
	rtt    *RTTEstimator
	tm     *connMetrics
	mon    *retxMonitor

	mu            sync.Mutex
	sendCond      *sync.Cond
	nextSeq       uint64
	unacked       map[uint64]*pendingPkt
	inFlightBytes int
	lowest        uint64 // lowest unacked seq
	closed        bool

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
		unacked:   map[uint64]*pendingPkt{},
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
func (c *RUDPConn) writeAll(datas [][]byte) {
	if c.writev != nil {
		_ = c.writev(datas)
		return
	}
	for _, d := range datas {
		_ = c.write(d)
	}
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
	data, err := m.Marshal()
	if err != nil {
		return err
	}
	return c.write(data)
}

// InFlight returns the number of unacknowledged packets.
func (c *RUDPConn) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unacked)
}

// windowFull reports whether the send window blocks admission. Callers
// hold c.mu.
func (c *RUDPConn) windowFull() bool {
	return len(c.unacked) >= rudpWindow || c.inFlightBytes >= rudpWindowBytes
}

// admit marshals m into a pooled buffer, consumes the next sequence
// number, and registers the packet in the unacked map with its retransmit
// deadline filed in the timer wheel. Callers hold c.mu and must clear the
// packet's writing flag (via finishWrite) once the bytes are on the wire.
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
	p := &pendingPkt{wb: wb, data: data, sentAt: now, writing: true}
	c.unacked[seq] = p
	c.inFlightBytes += len(data)
	c.mon.schedule(seq, now.Add(c.rtt.RTO()).UnixNano())
	return p, nil
}

// finishWrite clears the writing marks set by admit, releasing buffers
// whose acks raced the transmission.
func (c *RUDPConn) finishWrite(pkts []*pendingPkt) {
	c.mu.Lock()
	for _, p := range pkts {
		p.writing = false
		if p.acked {
			ReleaseWire(p.wb)
		}
	}
	c.mu.Unlock()
}

// Send implements Conn: it blocks while the send window is full and
// returns once the message is transmitted (not yet acknowledged).
func (c *RUDPConn) Send(m *Message) error {
	c.mu.Lock()
	if !c.closed && c.windowFull() {
		c.tm.sendBlocks.Inc()
	}
	for !c.closed && c.windowFull() {
		c.sendCond.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	p, err := c.admit(m)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	c.tm.sent.Inc()
	c.tm.inFlight.Add(1)
	werr := c.write(p.data)
	c.finishWrite([]*pendingPkt{p})
	return werr
}

// SendBatch transmits msgs with exactly Send's reliability and windowing,
// but flushes each admitted run toward the socket as one mmsg batch —
// the pacing-aware write path: a scheduler tick's packets for this
// destination become one syscall instead of one each. Like Send it blocks
// while the window is full, so a batch larger than the free window flushes
// in windowed chunks.
func (c *RUDPConn) SendBatch(msgs []*Message) error {
	var datas [][]byte
	var admitted []*pendingPkt
	i := 0
	for i < len(msgs) {
		datas, admitted = datas[:0], admitted[:0]
		c.mu.Lock()
		if !c.closed && c.windowFull() {
			c.tm.sendBlocks.Inc()
		}
		for !c.closed && c.windowFull() {
			c.sendCond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		var aerr error
		for i < len(msgs) && !c.windowFull() {
			p, err := c.admit(msgs[i])
			if err != nil {
				aerr = err
				break
			}
			datas = append(datas, p.data)
			admitted = append(admitted, p)
			i++
		}
		c.mu.Unlock()
		c.tm.sent.Add(uint64(len(admitted)))
		c.tm.inFlight.Add(float64(len(admitted)))
		c.writeAll(datas)
		c.finishWrite(admitted)
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
		fin, _ := (&Message{Kind: KindControl, Payload: ctlFin}).Marshal()
		_ = c.write(fin)
		c.mu.Lock()
		c.closed = true
		// Retire the in-flight gauge contribution of packets that will
		// never be acked; the map is cleared so a late ack cannot
		// double-decrement, and the pooled wire buffers go home.
		c.tm.inFlight.Add(-float64(len(c.unacked)))
		for _, p := range c.unacked {
			p.retire()
		}
		c.unacked = map[uint64]*pendingPkt{}
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

// handle processes one datagram addressed to this connection.
func (c *RUDPConn) handle(m *Message) {
	switch m.Kind {
	case KindAck:
		c.onAck(m.Seq)
	case KindData:
		c.onData(m)
	case KindProbe:
		if m.Stream == 0 {
			// Request: echo it back marked as a reply.
			reply := &Message{Kind: KindProbe, Seq: m.Seq, Stream: 1}
			if data, err := reply.Marshal(); err == nil {
				_ = c.write(data)
			}
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
			fn(m)
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

func (c *RUDPConn) onAck(cum uint64) {
	var fastResend []byte
	var acked int
	c.mu.Lock()
	now := time.Now()
	for seq := c.lowest; seq <= cum; seq++ {
		if p, ok := c.unacked[seq]; ok {
			if p.retries == 0 { // Karn's rule: no RTT from retransmits
				sample := now.Sub(p.sentAt)
				c.rtt.Observe(sample)
				c.tm.rtt.Observe(sample.Seconds())
			}
			c.ackedBits += float64(len(p.data)-headerLen) * 8
			c.inFlightBytes -= len(p.data)
			delete(c.unacked, seq)
			p.retire()
			acked++
		}
	}
	if cum >= c.lowest {
		c.lowest = cum + 1
		c.dupAcks = 0
	} else if cum+1 == c.lowest {
		// Duplicate cumulative ack: the packet at c.lowest is likely lost.
		// After three duplicates, retransmit it immediately (fast
		// retransmit) instead of waiting out the RTO.
		c.dupAcks++
		if c.dupAcks == 3 {
			if p, ok := c.unacked[c.lowest]; ok {
				p.retries++
				p.sentAt = now
				c.retransmits++
				c.fastRetransmits++
				// Copy off the pooled buffer: a later ack may release it
				// before the write below leaves the lock's shadow. The
				// wheel entry re-files itself against the new sentAt.
				fastResend = append([]byte(nil), p.data...)
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
		_ = c.write(fastResend)
	}
}

func (c *RUDPConn) onData(m *Message) {
	c.mu.Lock()
	if m.Seq < c.recvNext {
		// Duplicate: re-ack so the sender can advance.
		c.mu.Unlock()
		c.sendAck()
		return
	}
	c.ooo[m.Seq] = m
	start := c.recvNext
	delivered := 0
	for {
		next, ok := c.ooo[c.recvNext]
		if !ok {
			break
		}
		delete(c.ooo, c.recvNext)
		c.recvNext++
		delivered++
		if !c.closed {
			select {
			case c.recvQ <- next:
			default:
				// Receiver not draining: drop to protect the loop; the
				// ack already covered it, mirroring a full app buffer.
			}
		}
	}
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

func (c *RUDPConn) sendAck() {
	c.mu.Lock()
	cum := c.recvNext - 1
	c.acksSent++
	c.ackPending = false
	c.mu.Unlock()
	data, err := (&Message{Kind: KindAck, Seq: cum}).Marshal()
	if err == nil {
		c.tm.acksSent.Inc()
		_ = c.write(data)
	}
}

// Probe measures one RTT sample by sending a probe (Stream 0) and waiting
// for the peer's echo (Stream 1) carrying the same token.
func (c *RUDPConn) Probe(timeout time.Duration) (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	data, err := (&Message{Kind: KindProbe, Seq: token}).Marshal()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := c.write(data); err != nil {
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
