package shard

import (
	"sync"
	"sync/atomic"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// op selects a cross-shard command.
type op uint8

const (
	opNone op = iota
	// opAddStream places a new stream (global ID a, spec) on the shard.
	opAddStream
	// opOffer enqueues one packet for global stream a.
	opOffer
	// opObserve feeds available-bandwidth sample v (Mbps) to local path a.
	opObserve
)

// command is one cross-shard control message. Fields are a union over the
// ops; unused ones stay zero.
type command struct {
	op   op
	a    int
	v    float64
	spec *stream.Spec
	pkt  *simnet.Packet
}

// cmdQueue is the per-shard command ring: any goroutine produces (the
// control plane, admission upcalls, live Offer callers), exactly one
// consumer — the shard's own goroutine — drains it at tick boundaries.
//
// Producers serialize on a mutex (they are control-path by construction);
// the consumer's fast path is one atomic load: when no commands are
// pending, swap returns without touching the lock, so an idle ring costs
// the shard's hot loop nothing. When commands are pending the consumer
// takes the lock once per tick for an O(1) double-buffer swap and then
// processes the whole batch privately — commands are applied in
// submission order (FIFO), and the batch is everything submitted before
// the tick boundary. The queue is unbounded (append under the producer
// lock), so a producer never blocks on a full ring.
type cmdQueue struct {
	mu      sync.Mutex
	in      []command
	pending atomic.Int64
	// spare is the previous batch's storage, recycled so steady-state
	// submission stops allocating once sized to the peak batch.
	spare []command
}

// push appends one command; safe for any goroutine.
func (q *cmdQueue) push(c command) {
	q.mu.Lock()
	q.in = append(q.in, c)
	q.pending.Store(int64(len(q.in)))
	q.mu.Unlock()
}

// swap takes the accumulated batch, leaving an empty (recycled) buffer
// for producers. Only the owning shard calls it. Returns nil — without
// acquiring the lock — when nothing is pending.
func (q *cmdQueue) swap() []command {
	if q.pending.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	batch := q.in
	q.in = q.spare[:0]
	q.pending.Store(0)
	q.mu.Unlock()
	return batch
}

// recycle hands a processed batch's storage back for reuse. The caller
// must have zeroed any pointer-carrying commands it consumed (done by
// the shard's drain loop) so recycled slots don't pin packets or paths.
func (q *cmdQueue) recycle(batch []command) {
	q.mu.Lock()
	q.spare = batch[:0]
	q.mu.Unlock()
}
