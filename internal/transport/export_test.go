package transport

import (
	"fmt"
	"iqpaths/internal/telemetry"
	"time"
)

// SetFallback(true) forces the portable one-datagram-per-syscall path even
// where mmsg is compiled in — the hook differential tests and benchmarks
// use to compare both paths at runtime.
func (bc *BatchConn) SetFallback(on bool) { bc.fallback.Store(on) }

// Stats returns a snapshot of the syscall/datagram counters.
func (bc *BatchConn) Stats() BatchStats {
	return BatchStats{
		ReadCalls:      bc.readCalls.Load(),
		ReadDatagrams:  bc.readDgrams.Load(),
		WriteCalls:     bc.writeCalls.Load(),
		WriteDatagrams: bc.writeDgrams.Load(),
	}
}

// Unmarshal parses a datagram produced by Marshal.
func Unmarshal(buf []byte) (*Message, error) {
	var m Message
	if err := parseFrame(&m, buf); err != nil {
		return nil, err
	}
	c := m
	c.Payload = append([]byte(nil), m.Payload...)
	return &c, nil
}

// FastRetransmits returns the number of duplicate-ack-triggered
// retransmissions.
func (c *RUDPConn) FastRetransmits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fastRetransmits
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

// SetTelemetry redirects the transport's metrics to reg (nil restores the
// process default registry). Connections pick up the active registry when
// they are created.
func SetTelemetry(reg *telemetry.Registry) {
	tmMu.Lock()
	tmOverride = reg
	tmCurrent = nil
	tmMu.Unlock()
}
