package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// demuxBatch bounds the datagrams one listener/dialer read syscall may
// deliver; the receive buffers are pooled WireBufs reused across reads.
const demuxBatch = 32

// RUDPListener accepts RUDP sessions on one UDP socket, demultiplexing
// datagrams by peer address. Reads go through the batched wire layer, so
// a burst of datagrams from many peers costs one recvmmsg, not one
// syscall each. Sessions are keyed by the unmapped source AddrPort, a
// value: demultiplexing a datagram formats no string and allocates
// nothing.
type RUDPListener struct {
	sock *net.UDPConn
	bc   *BatchConn

	mu       sync.Mutex
	accepted *sync.Cond // signaled when pending grows or the listener closes
	sessions map[netip.AddrPort]*RUDPConn
	// pending holds sessions awaiting Accept. It is unbounded: a session
	// registered in sessions MUST be delivered (or torn down) — a bounded
	// queue that silently dropped the notification left the peer with a
	// completed handshake against a session no one would ever Accept.
	pending []*RUDPConn
	closed  bool

	// demuxDone closes when the demux goroutine has exited; Close waits on
	// it before tearing down the socket, so no session write launched from
	// demux can race the teardown.
	demuxDone chan struct{}
}

// ListenRUDP binds a UDP socket (e.g. "127.0.0.1:0") and starts the demux.
func ListenRUDP(addr string) (*RUDPListener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// Large buffers absorb striping bursts; errors are advisory (the OS
	// may clamp to its limits).
	_ = sock.SetReadBuffer(1 << 21)
	_ = sock.SetWriteBuffer(1 << 21)
	bc, err := NewBatchConn(sock)
	if err != nil {
		sock.Close()
		return nil, err
	}
	l := &RUDPListener{
		sock:      sock,
		bc:        bc,
		sessions:  map[netip.AddrPort]*RUDPConn{},
		demuxDone: make(chan struct{}),
	}
	l.accepted = sync.NewCond(&l.mu)
	go l.demux()
	return l, nil
}

// Addr returns the bound address.
func (l *RUDPListener) Addr() string { return l.sock.LocalAddr().String() }

// Accept returns the next new session (created on its first SYN). Sessions
// already pending when the listener closes are still delivered.
func (l *RUDPListener) Accept() (*RUDPConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.accepted.Wait()
	}
	if len(l.pending) == 0 {
		return nil, ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close shuts the listener and every session down. Shutdown is sequenced:
// the demux goroutine is stopped (and waited for) before the socket
// closes, so a SYN-ACK or session ack mid-write never hits a dead socket
// and surfaces a spurious error into send callbacks.
func (l *RUDPListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.pending = nil
	sessions := make([]*RUDPConn, 0, len(l.sessions))
	for _, c := range l.sessions {
		sessions = append(sessions, c)
	}
	l.accepted.Broadcast()
	l.mu.Unlock()
	// Wake the demux read and wait for the goroutine to drain out.
	_ = l.sock.SetReadDeadline(time.Now())
	<-l.demuxDone
	// Session FINs still flow through the (open) socket, then it closes.
	for _, c := range sessions {
		_ = c.Close()
	}
	return l.sock.Close()
}

func (l *RUDPListener) demux() {
	defer close(l.demuxDone)
	dgs := make([]Datagram, demuxBatch)
	bufs := make([]*WireBuf, demuxBatch)
	for i := range dgs {
		bufs[i] = AcquireWire()
		dgs[i].Buf = bufs[i].Grow(rudpMaxDatagram)
	}
	defer func() {
		for _, wb := range bufs {
			ReleaseWire(wb)
		}
	}()
	var m Message
	for {
		n, err := l.bc.ReadBatch(dgs)
		if err != nil {
			return // socket closed or Close woke us with a deadline
		}
		for i := 0; i < n; i++ {
			if parseFrame(&m, dgs[i].Buf[:dgs[i].N]) != nil {
				continue // garbage datagram
			}
			l.dispatch(&m, dgs[i].Addr)
		}
	}
}

// dispatch routes one datagram. Sessions are created on SYN only: any
// other frame from an unknown peer — a stray ack from a half-closed
// session, a data frame from a port scan — is dropped instead of
// registering a ghost session that would sit in pending forever. m is a
// parsed view of the receive buffer (see RUDPConn.handle).
func (l *RUDPListener) dispatch(m *Message, from netip.AddrPort) {
	isSyn := m.Kind == KindControl && m.Seq == 0 && string(m.Payload) == string(ctlSyn)
	key := netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	l.mu.Lock()
	conn, ok := l.sessions[key]
	if !ok {
		if l.closed || !isSyn {
			l.mu.Unlock()
			return
		}
		conn = newRUDPConn(key.String(), func(d []byte) error {
			_, werr := l.sock.WriteToUDPAddrPort(d, from)
			return werr
		}, func() {
			l.mu.Lock()
			delete(l.sessions, key)
			l.mu.Unlock()
		})
		conn.writev, conn.raddr = l.bc.WriteBatch, from
		l.sessions[key] = conn
		l.pending = append(l.pending, conn)
		l.accepted.Signal()
	}
	l.mu.Unlock()
	if isSyn {
		// First or duplicate SYN: (re-)confirm the handshake.
		ack, _ := (&Message{Kind: KindControl, Payload: ctlSynAck}).Marshal()
		_, _ = l.sock.WriteToUDPAddrPort(ack, from)
		return
	}
	conn.handle(m)
}

// rudpHandshakeRetry is the SYN retransmission interval during DialRUDP.
const rudpHandshakeRetry = 50 * time.Millisecond

// DialRUDP opens an RUDP session to addr, performing a small SYN/SYN-ACK
// handshake so the server registers the session before data flows.
func DialRUDP(addr string, timeout time.Duration) (*RUDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	_ = sock.SetReadBuffer(1 << 21)
	_ = sock.SetWriteBuffer(1 << 21)
	bc, err := NewBatchConn(sock)
	if err != nil {
		sock.Close()
		return nil, err
	}
	conn := newRUDPConn(addr, func(d []byte) error {
		_, werr := sock.Write(d)
		return werr
	}, func() { _ = sock.Close() })
	conn.writev = bc.WriteBatch

	// Reader loop: everything from the socket goes to the session, read in
	// recvmmsg batches.
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		dgs := make([]Datagram, demuxBatch)
		bufs := make([]*WireBuf, demuxBatch)
		for i := range dgs {
			bufs[i] = AcquireWire()
			dgs[i].Buf = bufs[i].Grow(rudpMaxDatagram)
		}
		defer func() {
			for _, wb := range bufs {
				ReleaseWire(wb)
			}
		}()
		var m Message
		for {
			n, rerr := bc.ReadBatch(dgs)
			if rerr != nil {
				_ = conn.Close()
				return
			}
			for i := 0; i < n; i++ {
				if parseFrame(&m, dgs[i].Buf[:dgs[i].N]) != nil {
					continue
				}
				if m.Kind == KindControl && string(m.Payload) == string(ctlSynAck) {
					once.Do(func() { close(ready) })
					continue
				}
				conn.handle(&m)
			}
		}
	}()

	// Handshake with retry. One reusable timer serves every wait (the old
	// per-retry time.After leaked a timer per attempt), and the final wait
	// is clamped to the remaining deadline so the call returns within the
	// caller's timeout instead of overshooting by up to a retry interval.
	syn, _ := (&Message{Kind: KindControl, Payload: ctlSyn}).Marshal()
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(timeout)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		if _, err := sock.Write(syn); err != nil {
			_ = conn.Close()
			return nil, err
		}
		wait := rudpHandshakeRetry
		if remaining := time.Until(deadline); remaining < wait {
			wait = remaining
		}
		if wait <= 0 {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: RUDP handshake with %s timed out", addr)
		}
		timer.Reset(wait)
		select {
		case <-ready:
			return conn, nil
		case <-timer.C:
		}
		if !time.Now().Before(deadline) {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: RUDP handshake with %s timed out", addr)
		}
	}
}

var _ Conn = (*RUDPConn)(nil)
var _ Conn = (*TCPConn)(nil)
