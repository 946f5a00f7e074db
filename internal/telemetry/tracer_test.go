package telemetry

import (
	"testing"
)

// fakeClock is a settable Clock standing in for the emulator's virtual
// time in tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestTracerVirtualTimestamps(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, 16)
	clk.t = 1.5
	tr.Emit("remap", "", "", 1)
	clk.t = 2.25
	tr.Emit("violation", "Atom", "PathA", 3)

	events, dropped := tr.Events()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].T != 1.5 || events[1].T != 2.25 {
		t.Fatalf("timestamps = %v, %v; want virtual 1.5, 2.25", events[0].T, events[1].T)
	}
	if events[1].Stream != "Atom" || events[1].Path != "PathA" || events[1].Value != 3 {
		t.Fatalf("event fields lost: %+v", events[1])
	}
}

func TestTracerRingRetention(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, 4)
	for i := 0; i < 10; i++ {
		clk.t = float64(i)
		tr.Emit("tick", "", "", float64(i))
	}
	events, dropped := tr.Events()
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	// Newest four, in emission order.
	for i, ev := range events {
		if want := float64(6 + i); ev.Value != want {
			t.Fatalf("event %d value = %v, want %v", i, ev.Value, want)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
}
