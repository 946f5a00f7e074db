package transport

import (
	"sync"

	"iqpaths/internal/telemetry"
)

// connMetrics holds the transport's metric handles (iqpaths_transport_*),
// shared by every connection in the process so per-conn traffic
// aggregates into one family.
type connMetrics struct {
	sent       *telemetry.Counter
	received   *telemetry.Counter
	acksSent   *telemetry.Counter
	retx       *telemetry.Counter
	fastRetx   *telemetry.Counter
	rtt        *telemetry.Histogram
	inFlight   *telemetry.Gauge
	sendBlocks *telemetry.Counter
}

var (
	tmMu       sync.Mutex
	tmOverride *telemetry.Registry
	tmCurrent  *connMetrics
)

// acquireConnMetrics returns the metric handles bound to the active
// registry, creating them on first use.
func acquireConnMetrics() *connMetrics {
	tmMu.Lock()
	defer tmMu.Unlock()
	if tmCurrent != nil {
		return tmCurrent
	}
	reg := tmOverride
	if reg == nil {
		reg = telemetry.Default()
	}
	tmCurrent = &connMetrics{
		sent:       reg.Counter("iqpaths_transport_sent_messages_total", "Messages transmitted (first sends, not retransmits)."),
		received:   reg.Counter("iqpaths_transport_received_messages_total", "Messages delivered in order to the application."),
		acksSent:   reg.Counter("iqpaths_transport_acks_sent_total", "Cumulative acks transmitted."),
		retx:       reg.Counter("iqpaths_transport_retransmits_total", "Packets retransmitted (RTO plus fast retransmits)."),
		fastRetx:   reg.Counter("iqpaths_transport_fast_retransmits_total", "Duplicate-ack-triggered retransmissions."),
		rtt:        reg.Histogram("iqpaths_transport_rtt_seconds", "Ack-measured round-trip samples (Karn's rule applied)."),
		inFlight:   reg.Gauge("iqpaths_transport_frames_in_flight", "Unacknowledged packets across all connections."),
		sendBlocks: reg.Counter("iqpaths_transport_send_window_blocks_total", "Send calls that blocked on a full window."),
	}
	return tmCurrent
}
