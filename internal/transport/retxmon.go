package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Per-connection retransmit monitor. The old retransmitLoop scanned the
// entire unacked map every 5 ms, so a connection with a large in-flight
// window paid O(window) per tick whether or not anything was due. The
// monitor files every transmitted sequence into a timer wheel keyed by its
// RTO deadline; each tick touches only the slots whose time has come, so
// steady-state cost tracks the loss rate, not the window size. Entries are
// lazy: an acked sequence is simply no longer in flight when its slot
// fires, and a sequence retransmitted early (fast retransmit on dup-acks)
// re-files itself at its new deadline. While the wheel is empty and no
// delayed ack is pending the monitor parks: an idle connection costs no
// wakeups, and the next schedule (or ack-pending delivery) restarts it.
// A drained slot's slice goes to a free list that schedule draws from
// when it files into an empty slot, and retransmit copies live in pooled
// wire buffers, so once a connection has run for one RTO it files and
// fires without allocating.

const (
	// retxTick is the wheel granularity — well under the 20 ms RTO floor,
	// so a due retransmit fires at most one tick late. The delayed-ack
	// flush (migrated from the old loop) also rides this cadence.
	retxTick = 2 * time.Millisecond
	// retxSlots sets the wheel horizon (retxSlots × retxTick ≈ 1 s);
	// deadlines beyond it wrap and re-file when their slot fires early.
	retxSlots = 512
)

type retxEntry struct {
	seq uint64
	due int64 // wall nanoseconds
}

// retxMonitor is one connection's timer wheel. schedule and kick may be
// called with the connection lock held (lock order: RUDPConn.mu →
// retxMonitor.mu); the run loop therefore always drops mon.mu before
// touching the conn.
type retxMonitor struct {
	c *RUDPConn

	mu     sync.Mutex
	slots  [retxSlots][]retxEntry
	free   [][]retxEntry // drained slot slices, emptied, for reuse
	queued int           // entries filed across all slots
	parked bool          // run is waiting on wake
	wake   chan struct{}
	cursor int64 // last wheel tick index processed

	wakes atomic.Int64 // loop iterations: ticks plus unparks

	// Retransmit scratch, touched only by the run goroutine: the pooled
	// copies and the batch that carries them.
	resendWBs []*WireBuf
	resendDgs []Datagram
}

func newRetxMonitor(c *RUDPConn) *retxMonitor {
	return &retxMonitor{
		c:      c,
		cursor: time.Now().UnixNano() / int64(retxTick),
		wake:   make(chan struct{}, 1),
	}
}

// schedule files seq to fire at due (wall nanoseconds). Safe under c.mu.
func (mon *retxMonitor) schedule(seq uint64, due int64) {
	slot := (due / int64(retxTick)) % retxSlots
	if slot < 0 {
		slot = 0
	}
	mon.mu.Lock()
	entries := mon.slots[slot]
	if entries == nil && len(mon.free) > 0 {
		entries = mon.free[len(mon.free)-1]
		mon.free = mon.free[:len(mon.free)-1]
	}
	mon.slots[slot] = append(entries, retxEntry{seq: seq, due: due})
	mon.queued++
	mon.unparkLocked()
	mon.mu.Unlock()
}

// kick restarts a parked monitor so it flushes a delayed ack. Safe
// under c.mu.
func (mon *retxMonitor) kick() {
	mon.mu.Lock()
	mon.unparkLocked()
	mon.mu.Unlock()
}

func (mon *retxMonitor) unparkLocked() {
	if mon.parked {
		mon.parked = false
		mon.wake <- struct{}{} // one token per park: never blocks
	}
}

// parkIfIdle marks the monitor parked when nothing is filed and no
// delayed ack is pending, reporting whether it did.
func (mon *retxMonitor) parkIfIdle() bool {
	c := mon.c
	c.mu.Lock()
	mon.mu.Lock()
	parked := mon.queued == 0 && !c.ackPending
	mon.parked = parked
	mon.mu.Unlock()
	c.mu.Unlock()
	return parked
}

// run drives the wheel until the connection closes.
func (mon *retxMonitor) run() {
	c := mon.c
	ticker := time.NewTicker(retxTick)
	defer ticker.Stop()
	for {
		if mon.parkIfIdle() {
			ticker.Stop()
			select {
			case <-ticker.C: // drop a tick that fired before Stop
			default:
			}
			select {
			case <-c.done:
				return
			case <-mon.wake:
			}
			mon.wakes.Add(1)
			// Resume on the tick cadence, so a delayed ack still waits
			// one tick for later deliveries to join it.
			ticker.Reset(retxTick)
		}
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		mon.wakes.Add(1)
		// Delayed-ack flush: cover a quiescent in-order tail before the
		// peer's RTO can fire.
		c.mu.Lock()
		flushAck := c.ackPending
		c.mu.Unlock()
		if flushAck {
			c.sendAck()
		}
		// Fire only slots whose tick has fully elapsed: every entry in
		// slot k is due before tick k+1 starts. Firing the current tick's
		// slot would find some entries not yet due and re-file them a
		// whole revolution later.
		last := time.Now().UnixNano()/int64(retxTick) - 1
		if last-mon.cursor > retxSlots {
			// Fell behind a full wheel revolution (suspend, debugger):
			// every slot is potentially due; one pass covers them all.
			mon.cursor = last - retxSlots
		}
		for mon.cursor < last {
			mon.cursor++
			if !mon.fire(mon.cursor % retxSlots) {
				return // fatal retry ceiling: connection closed
			}
		}
	}
}

// fire drains one slot: future entries re-file, due ones retransmit. It
// reports false when a packet exhausted its retries and the connection
// was torn down.
func (mon *retxMonitor) fire(slot int64) bool {
	mon.mu.Lock()
	entries := mon.slots[slot]
	mon.slots[slot] = nil
	mon.queued -= len(entries)
	mon.mu.Unlock()
	if len(entries) == 0 {
		return true
	}

	c := mon.c
	rto := c.rtt.RTO()
	now := time.Now()
	nowNs := now.UnixNano()
	wbs, dgs := mon.resendWBs[:0], mon.resendDgs[:0]
	fatal := false
	c.mu.Lock()
	for _, e := range entries {
		if e.due > nowNs {
			mon.schedule(e.seq, e.due) // wrapped: not due for another lap
			continue
		}
		p := c.inFlight(e.seq)
		if p == nil {
			continue // acked (or the connection reset); entry dies
		}
		due := p.sentAt.Add(rto)
		if now.Before(due) {
			// Re-sent since this entry was filed (fast retransmit) or the
			// RTO grew: chase the packet's current deadline.
			mon.schedule(e.seq, due.UnixNano())
			continue
		}
		p.retries++
		if p.retries > rudpMaxRetries {
			fatal = true
			break
		}
		p.sentAt = now
		c.retransmits++
		// Copy the wire image: the slot's buffer may be released by an ack
		// racing the write below, and a freed buffer must never reach the
		// socket.
		wb := AcquireWire()
		wb.B = append(wb.B[:0], p.data...)
		wbs = append(wbs, wb)
		dgs = append(dgs, Datagram{Buf: wb.B, Addr: c.raddr})
		mon.schedule(e.seq, now.Add(rto).UnixNano())
	}
	c.mu.Unlock()
	mon.mu.Lock()
	mon.free = append(mon.free, entries[:0])
	mon.mu.Unlock()
	if len(dgs) > 0 && !fatal {
		c.rtt.Backoff()
		c.tm.retx.Add(uint64(len(dgs)))
		c.writeAll(dgs)
	}
	for _, wb := range wbs {
		ReleaseWire(wb)
	}
	mon.resendWBs, mon.resendDgs = wbs[:0], dgs[:0]
	if fatal {
		_ = c.Close()
		return false
	}
	return true
}
