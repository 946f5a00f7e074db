// Package live is the wall-clock execution layer of IQ-Paths: it runs the
// same scheduler (internal/pgos), predictors (internal/monitor), and
// transport (internal/transport) that the virtual-time experiments use,
// but paced by a real clock over real UDP sockets. The paper's third
// contribution is exactly this step — an overlay middleware realization,
// not only a simulation — and the live loop is what lets the statistical
// machinery do its real job: CDF predictors maintained online from live
// probe-train and passive measurements.
//
// Everything in this package is written against the Clock interface so
// the driver, prober, responder, and accountant are deterministically
// unit-testable under FakeClock with no sleeps; deployments use
// NewWallClock. Only the end-to-end smoke test touches real sockets and
// wall time.
package live

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts monotonic time for the live runtime.
type Clock interface {
	// Now returns the elapsed monotonic time since the clock's epoch.
	Now() time.Duration
	// Stamp returns a timestamp in nanoseconds comparable across
	// processes on one machine: wall clocks return UnixNano, fake clocks
	// their virtual nanoseconds. Deadlines travel on the wire as Stamps.
	Stamp() int64
	// After returns a channel that fires once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// WallClock is the deployment Clock: monotonic readings from time.Since
// and UnixNano stamps.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a wall clock whose epoch is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now implements Clock.
func (c *WallClock) Now() time.Duration { return time.Since(c.start) }

// Stamp implements Clock.
func (c *WallClock) Stamp() int64 { return time.Now().UnixNano() }

// After implements Clock.
func (c *WallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a deterministic Clock for tests: time advances only via
// Advance, which fires due timers in order. Safe for concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Duration
	timers  []*fakeTimer
	waiters *sync.Cond // signaled whenever a timer is registered
}

type fakeTimer struct {
	at time.Duration
	ch chan time.Time
}

// NewFakeClock returns a fake clock at elapsed time zero.
// testonly: the virtual clock fixture live's tests and cmd/iqpathsd's
// TestSourcePlaneExportsMetrics run the live path on.
func NewFakeClock() *FakeClock {
	c := &FakeClock{}
	c.waiters = sync.NewCond(&c.mu)
	return c
}

// Now implements Clock.
func (c *FakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Stamp implements Clock: virtual nanoseconds since the epoch.
func (c *FakeClock) Stamp() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.now)
}

// After implements Clock. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- time.Unix(0, int64(c.now))
		return ch
	}
	c.timers = append(c.timers, &fakeTimer{at: c.now + d, ch: ch})
	c.waiters.Broadcast()
	return ch
}

// Advance moves the clock forward by d, firing every timer due at or
// before the new time, in deadline order.
// testonly: part of the FakeClock fixture.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	sort.SliceStable(c.timers, func(i, j int) bool { return c.timers[i].at < c.timers[j].at })
	remaining := c.timers[:0]
	var due []*fakeTimer
	for _, t := range c.timers {
		if t.at <= c.now {
			due = append(due, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	c.timers = remaining
	c.mu.Unlock()
	for _, t := range due {
		t.ch <- time.Unix(0, int64(t.at))
	}
}

// BlockUntilTimers waits (without sleeping) until at least n timers are
// registered — the synchronization hook tests use to advance the clock
// only once the code under test is parked in After.
// testonly: part of the FakeClock fixture.
func (c *FakeClock) BlockUntilTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.waiters.Wait()
	}
}

// telemetryClock adapts a live Clock to telemetry.Clock (seconds).
type telemetryClock struct{ c Clock }

// Now returns the clock's elapsed time in seconds.
func (t telemetryClock) Now() float64 { return t.c.Now().Seconds() }
