package transport

import (
	"sync"
	"testing"
	"time"
)

// TestRUDPSendMarshalErrorDoesNotConsumeSeq is the regression test for the
// sequence-number leak: Send used to increment nextSeq before Marshal, so
// a message that failed to marshal consumed a sequence number that was
// never transmitted. The receiver's recvNext then stalled forever on the
// hole and every later message was stranded in its out-of-order map.
func TestRUDPSendMarshalErrorDoesNotConsumeSeq(t *testing.T) {
	client, server, cleanup := rudpPair(t)
	defer cleanup()

	// A payload over MaxPayload fails Marshal inside Send.
	if err := client.Send(&Message{Kind: KindData, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("oversized send should fail")
	}
	// The very next message must still be deliverable: pre-fix, its
	// sequence number sat behind the leaked one and never cleared.
	if err := client.Send(&Message{Kind: KindData, Payload: []byte("after-error")}); err != nil {
		t.Fatal(err)
	}
	got := make(chan *Message, 1)
	go func() {
		m, err := server.Recv()
		if err == nil {
			got <- m
		}
	}()
	select {
	case m := <-got:
		if string(m.Payload) != "after-error" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver stalled: marshal error consumed a sequence number")
	}
}

// fakeConn builds an RUDPConn whose writes are captured instead of hitting
// a socket, for deterministic ack-policy tests.
func fakeConn() (*RUDPConn, func() []*Message) {
	var mu sync.Mutex
	var out []*Message
	c := newRUDPConn("fake", func(d []byte) error {
		m, err := Unmarshal(d)
		if err != nil {
			return err
		}
		mu.Lock()
		out = append(out, m)
		mu.Unlock()
		return nil
	}, nil)
	return c, func() []*Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Message(nil), out...)
	}
}

// TestRUDPBatchAckCrossesBoundary is the regression test for the skipped
// batch ack: when buffered out-of-order packets deliver at once, the batch
// can straddle a multiple of rudpAckEvery without ending on it. The old
// policy ((recvNext-1)%rudpAckEvery == 0) only looked at the endpoint and
// sent nothing, leaving the sender to time out.
func TestRUDPBatchAckCrossesBoundary(t *testing.T) {
	c, sent := fakeConn()
	defer c.Close()
	// Drain delivered messages so the recvQ never blocks the test.
	go func() {
		for range c.recvQ {
		}
	}()

	// Seqs 2..5 arrive out of order (each triggers an immediate ooo ack
	// with cum 0), then seq 1 releases the whole batch: recvNext jumps
	// 1 → 6, crossing boundary 4 but not landing on a multiple of 4.
	for seq := uint64(2); seq <= 5; seq++ {
		c.handle(&Message{Kind: KindData, Seq: seq, Payload: []byte("x")})
	}
	c.handle(&Message{Kind: KindData, Seq: 1, Payload: []byte("x")})

	var cum uint64
	for _, m := range sent() {
		if m.Kind == KindAck && m.Seq > cum {
			cum = m.Seq
		}
	}
	if cum < 5 {
		t.Fatalf("highest cumulative ack after batch = %d, want 5 (boundary 4 was crossed)", cum)
	}
}

// TestRUDPQuiescentTailNoRTO is the regression test for the unacked tail:
// the final in-order packets of a transfer never reach an ack boundary, so
// before the delayed-ack flush the sender could only learn about them via
// an RTO retransmit and the duplicate path's re-ack — inflating tail
// latency and spurious-retransmit counts.
func TestRUDPQuiescentTailNoRTO(t *testing.T) {
	client, server, cleanup := rudpPair(t)
	defer cleanup()

	// 5 messages: ack boundary at seq 4, tail seq 5 past it.
	for i := 0; i < 5; i++ {
		if err := client.Send(&Message{Kind: KindData, Payload: []byte("tail")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for client.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tail never acked: in-flight stuck at %d", client.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := client.Retransmits(); n != 0 {
		t.Fatalf("quiescent tail forced %d RTO retransmits, want 0", n)
	}
}

// TestRUDPIdleMonitorParks checks that an idle connection's retransmit
// monitor sleeps instead of ticking: fresh from the handshake, and again
// once a burst has been acked and its wheel has drained.
func TestRUDPIdleMonitorParks(t *testing.T) {
	client, server, cleanup := rudpPair(t)
	defer cleanup()
	conns := []*RUDPConn{client, server}
	idleWakes := func(phase string) {
		t.Helper()
		var before [2]int64
		for i, c := range conns {
			before[i] = c.mon.wakes.Load()
		}
		time.Sleep(200 * time.Millisecond)
		for i, c := range conns {
			if n := c.mon.wakes.Load() - before[i]; n > 5 {
				t.Fatalf("%s: idle connection %d woke %d times in 200 ms", phase, i, n)
			}
		}
	}
	idleWakes("after handshake")

	for i := 0; i < 5; i++ { // the tail past the ack boundary needs a delayed ack
		if err := client.Send(&Message{Kind: KindData, Payload: []byte("burst")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, c := range conns {
		for !monParked(c.mon) {
			if time.Now().After(deadline) {
				t.Fatalf("monitor never parked after the burst (in flight %d)", client.InFlight())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if client.InFlight() != 0 || client.Retransmits() != 0 {
		t.Fatalf("burst left %d in flight after %d retransmits", client.InFlight(), client.Retransmits())
	}
	idleWakes("after burst")
}

func monParked(mon *retxMonitor) bool {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	return mon.parked
}
