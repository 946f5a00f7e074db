package transport

import (
	"math"
	"testing"
	"time"
)

// Regression tests for RUDP's window rules under hostile or unusual
// frames, fed straight through handle as the demux would.

// TestRUDPIgnoresAckBeyondNextSeq: an ack for a sequence never sent is
// ignored. Trusted, a forged ack walked every sequence up to its value
// under the connection lock (forever at MaxUint64, where the walk wraps)
// and pushed lowest past nextSeq, so no real packet could be acked again
// and each retransmitted until the connection died.
func TestRUDPIgnoresAckBeyondNextSeq(t *testing.T) {
	c, _ := fakeConn()
	for i := 0; i < 3; i++ {
		if err := c.Send(&Message{Kind: KindData, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		c.handle(&Message{Kind: KindAck, Seq: 1 << 26})
		c.handle(&Message{Kind: KindAck, Seq: math.MaxUint64})
		c.handle(&Message{Kind: KindAck, Seq: 4}) // nextSeq itself: never sent either
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		// The walk still holds c.mu: leave c alone rather than hang on it.
		t.Fatal("out-of-window acks did not return")
	}
	defer c.Close()
	if n := c.InFlight(); n != 3 {
		t.Fatalf("in flight after forged acks = %d, want 3", n)
	}
	if c.AckedBits() != 0 {
		t.Fatalf("forged acks credited %v acked bits", c.AckedBits())
	}
	// The genuine ack still retires everything, and later packets stay
	// ackable: lowest never passed nextSeq.
	c.handle(&Message{Kind: KindAck, Seq: 3})
	if err := c.Send(&Message{Kind: KindData, Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	c.handle(&Message{Kind: KindAck, Seq: 4})
	if n := c.InFlight(); n != 0 {
		t.Fatalf("in flight after genuine acks = %d, want 0", n)
	}
}

// TestRUDPDropsDataBeyondWindow: a data sequence at or beyond
// recvNext+rudpWindow cannot come from a conforming sender; it is dropped
// instead of parking in the out-of-order map forever.
func TestRUDPDropsDataBeyondWindow(t *testing.T) {
	c, _ := fakeConn()
	defer c.Close()
	oooLen := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.ooo)
	}
	for _, seq := range []uint64{1 + rudpWindow, 1 << 40, math.MaxUint64} {
		c.handle(&Message{Kind: KindData, Seq: seq, Payload: []byte("far")})
	}
	if n := oooLen(); n != 0 {
		t.Fatalf("out-of-window data parked: ooo holds %d frames", n)
	}
	// The window's last sequence is still buffered, and in-order data is
	// delivered without touching the map.
	c.handle(&Message{Kind: KindData, Seq: rudpWindow, Payload: []byte("edge")})
	if n := oooLen(); n != 1 {
		t.Fatalf("in-window out-of-order frame not buffered: ooo holds %d", n)
	}
	c.handle(&Message{Kind: KindData, Seq: 1, Payload: []byte("first")})
	select {
	case m := <-c.recvQ:
		if m.Seq != 1 || string(m.Payload) != "first" {
			t.Fatalf("delivered seq %d %q, want seq 1", m.Seq, m.Payload)
		}
	default:
		t.Fatal("in-order frame not delivered")
	}
	if n := oooLen(); n != 1 {
		t.Fatalf("ooo holds %d frames after in-order delivery, want the edge frame only", n)
	}
}

// TestRUDPRingSlotHeldWhileWriting: a packet acked while its first write
// is still in progress keeps its ring slot (and buffer) until the write
// returns, so the sequence one window later cannot overwrite it.
func TestRUDPRingSlotHeldWhileWriting(t *testing.T) {
	base := WireOutstanding()
	c, _ := fakeConn()
	m := &Message{Kind: KindData, Payload: []byte("z")}
	c.mu.Lock()
	held, err := c.admit(m) // seq 1, writing
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	c.handle(&Message{Kind: KindAck, Seq: 1}) // acked mid-write
	for seq := 2; seq <= rudpWindow; seq++ {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	inFlight, full := c.nextSeq-c.lowest, c.windowFull()
	c.mu.Unlock()
	if inFlight != rudpWindow-1 || !full {
		t.Fatalf("in flight %d, window full %v; want %d in flight and the window blocked on seq 1's slot",
			inFlight, full, rudpWindow-1)
	}
	c.finishWrite(held)
	c.mu.Lock()
	full = c.windowFull()
	c.mu.Unlock()
	if full {
		t.Fatal("window still blocked after the held slot's write finished")
	}
	c.Close()
	if n := WireOutstanding() - base; n != 0 {
		t.Fatalf("%d wire buffers outstanding after close", n)
	}
}

// TestRUDPTimeoutRetransmitOnTime: a lone lost packet (no later traffic,
// so no duplicate acks) is retransmitted one RTO after it was sent, not a
// wheel revolution later. The wheel used to fire the current tick's slot
// and re-file its not-yet-due entries for another lap, deferring about
// half of all timeout retransmissions by a full second.
func TestRUDPTimeoutRetransmitOnTime(t *testing.T) {
	for i := 0; i < 8; i++ {
		dropped := false
		a, b := memPair(func(m *Message) bool {
			if m.Kind == KindData && !dropped {
				dropped = true
				return true
			}
			return false
		})
		start := time.Now()
		if err := a.Send(&Message{Kind: KindData, Payload: []byte("lone")}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		a.Close()
		b.Close()
		if took > 300*time.Millisecond {
			t.Fatalf("run %d: lost packet recovered after %v; the RTO is %v", i, took, a.rtt.minRTO)
		}
	}
}
