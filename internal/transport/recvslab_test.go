package transport

import (
	"bytes"
	"testing"
)

// slabPattern is the payload of a test frame: n bytes that differ from
// every other sequence's.
func slabPattern(seq uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seq*31 + uint64(i)*7)
	}
	return b
}

// TestRecvSlabOwnsDeliveries: messages carved from a connection's
// receive slab own their bytes. Every frame is parsed from one receive
// buffer that the next frame overwrites, as the demux does; a delivered
// payload must survive that, many later deliveries, an append on its
// neighbour, and out-of-order parking, and a payload that fills a slab
// or is too large for one must arrive intact as well.
func TestRecvSlabOwnsDeliveries(t *testing.T) {
	c, _ := fakeConn()
	defer c.Close()
	rx := make([]byte, recvSlabBytes+1) // the shared receive buffer
	feed := func(kind uint8, seq uint64, n int) {
		copy(rx, slabPattern(seq, n))
		m := Message{Kind: kind, Seq: seq, Payload: rx[:n]}
		c.handle(&m)
	}
	recv := func(seq uint64, n int) *Message {
		t.Helper()
		select {
		case m := <-c.recvQ:
			if m.Seq != seq || !bytes.Equal(m.Payload, slabPattern(seq, n)) {
				t.Fatalf("delivered seq %d (%d bytes), want seq %d intact (%d bytes)", m.Seq, len(m.Payload), seq, n)
			}
			return m
		default:
			t.Fatalf("seq %d not delivered", seq)
			return nil
		}
	}

	const size = 1000
	feed(KindData, 1, size)
	first := recv(1, size)
	feed(KindData, 2, size)
	second := recv(2, size)
	if cap(first.Payload) != len(first.Payload) {
		t.Fatalf("payload capacity %d exceeds its length %d: an append would write past it", cap(first.Payload), len(first.Payload))
	}
	grown := append(first.Payload, bytes.Repeat([]byte{0xEE}, size)...)
	if !bytes.Equal(second.Payload, slabPattern(2, size)) {
		t.Fatal("append on one message's payload overwrote the next message")
	}
	if !bytes.Equal(grown[:size], slabPattern(1, size)) {
		t.Fatal("append lost the payload it grew")
	}

	// Enough later deliveries to pass through several fresh slabs.
	for seq := uint64(3); seq < 203; seq++ {
		feed(KindData, seq, size)
		recv(seq, size)
	}
	if !bytes.Equal(first.Payload, slabPattern(1, size)) || !bytes.Equal(second.Payload, slabPattern(2, size)) {
		t.Fatal("a delivered payload changed under 200 later deliveries")
	}

	// Out of order: 205 and 204 park until 203 closes the gap.
	feed(KindData, 205, size)
	feed(KindData, 204, size-1)
	feed(KindData, 203, size+1)
	recv(203, size+1)
	recv(204, size-1)
	recv(205, size)

	// A payload that fills a whole slab, then one too large for any slab
	// (a payload of its own).
	feed(KindData, 206, recvSlabBytes)
	full := recv(206, recvSlabBytes)
	big := recvSlabBytes + 1
	feed(KindData, 207, big)
	feed(KindData, 208, size)
	bigMsg := recv(207, big)
	recv(208, size)
	if !bytes.Equal(full.Payload, slabPattern(206, recvSlabBytes)) || !bytes.Equal(bigMsg.Payload, slabPattern(207, big)) {
		t.Fatal("a slab-sized or over-slab payload changed under a later delivery")
	}
}
