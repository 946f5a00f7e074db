package telemetry

import "sync"

// Event is one traced occurrence. T is in seconds on the tracer's clock:
// virtual seconds when the tracer is driven by the emulator, Unix seconds
// under WallClock.
type Event struct {
	T      float64 `json:"t"`
	Name   string  `json:"name"`
	Stream string  `json:"stream,omitempty"`
	Path   string  `json:"path,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// Tracer records events into a fixed-size ring buffer: cheap enough to
// leave on, bounded so a long run cannot exhaust memory. The newest
// events win; Events reports how many were dropped.
type Tracer struct {
	clock Clock

	mu      sync.Mutex
	ring    []Event
	next    int    // ring write position
	total   uint64 // events ever emitted
	dropped uint64 // total - retained
}

// NewTracer returns a tracer stamping events with clock, retaining the
// most recent capacity events (minimum 1).
func NewTracer(clock Clock, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	if clock == nil {
		clock = WallClock{}
	}
	return &Tracer{clock: clock, ring: make([]Event, 0, capacity)}
}

// Emit records an event stamped with the tracer's clock.
func (t *Tracer) Emit(name, stream, path string, value float64) {
	ev := Event{T: t.clock.Now(), Name: name, Stream: stream, Path: path, Value: value}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.dropped++
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Events returns the retained events in emission order and the number of
// older events that fell off the ring.
func (t *Tracer) Events() (events []Event, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events = make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		events = append(events, t.ring...)
	} else {
		events = append(events, t.ring[t.next:]...)
		events = append(events, t.ring[:t.next]...)
	}
	return events, t.dropped
}
