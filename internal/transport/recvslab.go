package transport

// Receive slabs. Every message an RUDP connection delivers to Recv — in
// order, or parked out of order until the gap closes — outlives the
// receive buffer it was parsed from, so it needs memory of its own. A
// fresh Message and payload per datagram made the receiver the last
// per-packet allocator of the live path. Instead, a connection carves
// each delivered Message out of a chunk of recvSlabMsgs structs and its
// payload out of a recvSlabBytes byte slab. Any payload that fits a slab
// is carved: a live packet (about 1,500 bytes) shares a slab with twenty
// others, a gridftp block (16 KiB) with one other. Only a payload larger
// than a slab gets an allocation of its own.
//
// Slab memory is never reused: a carved message owns its region for as
// long as anything references it, and the garbage collector frees a
// chunk once no message points into it. No release call exists, so no
// misplaced release can hand one region to two owners. The cost is
// retention: a message the application keeps pins its whole chunk and
// slab. Each payload is capped to its own length (buf[:n:n]), so an
// append by the application reallocates instead of writing into the
// next message's bytes.

const (
	// recvSlabMsgs is the Message structs per chunk.
	recvSlabMsgs = 64
	// recvSlabBytes is the payload bytes per slab, and the largest
	// payload carved from one.
	recvSlabBytes = 32 << 10
)

// recvSlab is a connection's receive-side carving state. It belongs to
// the connection's single receive goroutine (the listener's demux or the
// dialer's reader), which is the only caller of RUDPConn.handle.
type recvSlab struct {
	msgs []Message // unused tail of the current chunk
	buf  []byte    // unused tail of the current payload slab
}

// own returns a copy of the parsed view m that owns its memory: m's
// payload still aliases the receive buffer, which the next read
// overwrites. An empty payload owns nil.
func (s *recvSlab) own(m *Message) *Message {
	if len(s.msgs) == 0 {
		s.msgs = make([]Message, recvSlabMsgs)
	}
	c := &s.msgs[0]
	s.msgs = s.msgs[1:]
	*c = Message{Kind: m.Kind, Stream: m.Stream, Frame: m.Frame, Seq: m.Seq}
	n := len(m.Payload)
	switch {
	case n == 0:
	case n > recvSlabBytes:
		c.Payload = append([]byte(nil), m.Payload...)
	default:
		if len(s.buf) < n {
			s.buf = make([]byte, recvSlabBytes)
		}
		c.Payload = s.buf[:n:n]
		copy(c.Payload, m.Payload)
		s.buf = s.buf[n:]
	}
	return c
}
