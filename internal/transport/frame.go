// Package transport is the real-socket message layer of IQ-Paths: framed
// messages over TCP and over RUDP (reliable UDP with acknowledgements,
// retransmission, and Jacobson RTT estimation — the transport the original
// middleware used for fine-grained monitoring). The experiments run on the
// simnet emulator; this package is what the daemon (cmd/iqpathsd), the
// transfer tool (cmd/iqftp), and the examples use to move real bytes, and
// its Path adapter lets the identical PGOS engine drive live connections.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message kinds.
const (
	// KindData carries application payload.
	KindData = uint8(iota)
	// KindAck acknowledges RUDP data (Seq = cumulative ack).
	KindAck
	// KindProbe measures RTT (echoed by the receiver).
	KindProbe
	// KindControl carries small control-plane payloads.
	KindControl
	// KindTrain carries unreliable probe-train packets (bandwidth
	// dispersion measurement): never acked, never retransmitted, delivered
	// to the connection's raw handler instead of Recv.
	KindTrain
)

// MaxPayload bounds a message payload (sanity limit on the wire).
const MaxPayload = 1 << 20

// ErrBadFrame reports a malformed wire frame.
var ErrBadFrame = errors.New("transport: malformed frame")

// Message is the unit of the IQ-Paths wire protocol.
type Message struct {
	// Kind is one of the Kind* constants.
	Kind uint8
	// Stream tags the application stream.
	Stream uint32
	// Frame groups messages into application frames/records.
	Frame uint64
	// Seq is the RUDP sequence number (or echo token for probes).
	Seq uint64
	// Payload is the application data.
	Payload []byte
}

// wire layout: magic(2) kind(1) pad(1) stream(4) frame(8) seq(8) len(4) payload.
const headerLen = 2 + 1 + 1 + 4 + 8 + 8 + 4

// DatagramOverhead is the framing overhead per datagram in bytes — what a
// shaping relay sees on top of the payload. Live bandwidth estimators add
// it to payload sizes when converting dispersions to rates.
const DatagramOverhead = headerLen

var magic = [2]byte{'I', 'Q'}

// WriteMessage frames and writes m to w.
func WriteMessage(w io.Writer, m *Message) error {
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", len(m.Payload), MaxPayload)
	}
	var hdr [headerLen]byte
	hdr[0], hdr[1] = magic[0], magic[1]
	hdr[2] = m.Kind
	binary.LittleEndian.PutUint32(hdr[4:], m.Stream)
	binary.LittleEndian.PutUint64(hdr[8:], m.Frame)
	binary.LittleEndian.PutUint64(hdr[16:], m.Seq)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:2])
	}
	n := binary.LittleEndian.Uint32(hdr[24:])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	m := &Message{
		Kind:   hdr[2],
		Stream: binary.LittleEndian.Uint32(hdr[4:]),
		Frame:  binary.LittleEndian.Uint64(hdr[8:]),
		Seq:    binary.LittleEndian.Uint64(hdr[16:]),
	}
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Marshal renders the message to a datagram (for RUDP).
func (m *Message) Marshal() ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("transport: payload %d exceeds max", len(m.Payload))
	}
	buf := make([]byte, headerLen+len(m.Payload))
	buf[0], buf[1] = magic[0], magic[1]
	buf[2] = m.Kind
	binary.LittleEndian.PutUint32(buf[4:], m.Stream)
	binary.LittleEndian.PutUint64(buf[8:], m.Frame)
	binary.LittleEndian.PutUint64(buf[16:], m.Seq)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(m.Payload)))
	copy(buf[headerLen:], m.Payload)
	return buf, nil
}

// appendMarshal renders the message into buf (reusing its capacity) and
// returns the wire image — Marshal without the per-datagram allocation,
// for pooled wire buffers.
func (m *Message) appendMarshal(buf []byte) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("transport: payload %d exceeds max", len(m.Payload))
	}
	n := headerLen + len(m.Payload)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0], buf[1] = magic[0], magic[1]
	buf[2] = m.Kind
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[4:], m.Stream)
	binary.LittleEndian.PutUint64(buf[8:], m.Frame)
	binary.LittleEndian.PutUint64(buf[16:], m.Seq)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(m.Payload)))
	copy(buf[headerLen:], m.Payload)
	return buf, nil
}

// Unmarshal parses a datagram produced by Marshal.
func Unmarshal(buf []byte) (*Message, error) {
	var m Message
	if err := parseFrame(&m, buf); err != nil {
		return nil, err
	}
	return m.clone(), nil
}

// parseFrame decodes buf into m without copying: m.Payload aliases buf,
// so m is a view valid only while buf is. The receive paths parse into a
// stack Message and clone only what outlives the receive buffer.
func parseFrame(m *Message, buf []byte) error {
	if len(buf) < headerLen {
		return fmt.Errorf("%w: short datagram (%d bytes)", ErrBadFrame, len(buf))
	}
	if buf[0] != magic[0] || buf[1] != magic[1] {
		return fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(buf[24:])
	if int(n) != len(buf)-headerLen {
		return fmt.Errorf("%w: length %d vs %d", ErrBadFrame, n, len(buf)-headerLen)
	}
	*m = Message{
		Kind:    buf[2],
		Stream:  binary.LittleEndian.Uint32(buf[4:]),
		Frame:   binary.LittleEndian.Uint64(buf[8:]),
		Seq:     binary.LittleEndian.Uint64(buf[16:]),
		Payload: buf[headerLen:],
	}
	return nil
}

// clone returns an owned copy of m: a parsed view's payload still aliases
// the receive buffer, which the next read overwrites. An empty payload
// clones to nil.
func (m *Message) clone() *Message {
	c := &Message{Kind: m.Kind, Stream: m.Stream, Frame: m.Frame, Seq: m.Seq}
	if len(m.Payload) > 0 {
		c.Payload = append([]byte(nil), m.Payload...)
	}
	return c
}

// bufferedConn pairs a connection with its buffered reader/writer.
type bufferedConn struct {
	r *bufio.Reader
	w *bufio.Writer
}
