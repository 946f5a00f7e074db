package transport

import (
	"bufio"
	"net"
	"sync"
)

// Conn is a bidirectional message connection.
type Conn interface {
	// Send writes one message (blocking; safe for one concurrent sender).
	// The implementation must serialize m before returning and retain
	// neither m nor its Payload: callers (transport.Path's writer) reuse
	// both across calls.
	Send(m *Message) error
	// Recv reads the next message (blocking; safe for one concurrent
	// receiver). The message and its Payload belong to the caller and
	// are never reused or overwritten by the connection. An
	// implementation may carve them from memory shared with neighbouring
	// messages (RUDPConn does, from its receive slab); the Payload's
	// capacity ends at its length, so append copies instead of writing
	// into a neighbour. Retaining a message keeps that shared memory
	// alive: a caller that stores messages long-term should copy what it
	// keeps.
	Recv() (*Message, error)
	// Close tears the connection down; pending Recv calls fail.
	Close() error
	// RemoteAddr names the peer.
	RemoteAddr() string
}

// TCPConn frames messages over a TCP stream.
type TCPConn struct {
	c    net.Conn
	bc   bufferedConn
	sndM sync.Mutex
	rcvM sync.Mutex
}

// DialTCP connects to an IQ-Paths TCP endpoint.
func DialTCP(addr string) (*TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func newTCPConn(c net.Conn) *TCPConn {
	return &TCPConn{
		c:  c,
		bc: bufferedConn{r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)},
	}
}

// Send implements Conn.
func (t *TCPConn) Send(m *Message) error {
	t.sndM.Lock()
	defer t.sndM.Unlock()
	if err := WriteMessage(t.bc.w, m); err != nil {
		return err
	}
	return t.bc.w.Flush()
}

// Recv implements Conn.
func (t *TCPConn) Recv() (*Message, error) {
	t.rcvM.Lock()
	defer t.rcvM.Unlock()
	return ReadMessage(t.bc.r)
}

// Close implements Conn.
func (t *TCPConn) Close() error { return t.c.Close() }

// RemoteAddr implements Conn.
func (t *TCPConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

// TCPListener accepts IQ-Paths TCP connections.
type TCPListener struct {
	l net.Listener
}

// ListenTCP binds addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPListener{l: l}, nil
}

// Addr returns the bound address.
func (l *TCPListener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *TCPListener) Accept() (*TCPConn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Close stops listening.
func (l *TCPListener) Close() error { return l.l.Close() }
