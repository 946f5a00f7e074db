package transport

import (
	"sync"
	"testing"
	"time"
)

// TestRUDPConcurrentStress hammers one loopback session from many
// goroutines at once — single and batch senders sharing each end's window
// ring, receivers draining, probes and raw frames sharing the control
// buffer — and then closes both sides mid-traffic, covering the
// close-vs-deliver window. It asserts nothing beyond termination: the value
// is running under -race (the CI race job) and not deadlocking.
func TestRUDPConcurrentStress(t *testing.T) {
	client, server, cleanup := rudpPair(t)
	defer cleanup()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	sender := func(c *RUDPConn, batch int) {
		defer wg.Done()
		payload := make([]byte, 512)
		msgs := make([]*Message, batch)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := range msgs {
				msgs[k] = &Message{Kind: KindData, Frame: uint64(i), Payload: payload}
			}
			var err error
			if batch == 1 {
				err = c.Send(msgs[0])
			} else {
				err = c.SendBatch(msgs)
			}
			if err != nil {
				return // ErrClosed once the teardown races in
			}
		}
	}
	receiver := func(c *RUDPConn) {
		defer wg.Done()
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}
	prober := func(c *RUDPConn) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c.Probe(20 * time.Millisecond)
			_ = c.WriteRaw(&Message{Kind: KindTrain, Payload: make([]byte, 64)})
		}
	}

	for _, c := range []*RUDPConn{client, server} {
		wg.Add(4)
		go sender(c, 1)
		go sender(c, 8)
		go receiver(c)
		go prober(c)
	}

	// Let traffic flow, then tear both ends down concurrently while
	// senders, receivers, and probers are still running.
	time.Sleep(200 * time.Millisecond)
	wg.Add(2)
	go func() { defer wg.Done(); _ = client.Close() }()
	go func() { defer wg.Done(); _ = server.Close() }()
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stress goroutines did not terminate (deadlock)")
	}
}
