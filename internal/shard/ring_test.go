package shard

import (
	"sync"
	"testing"
)

func TestCmdQueueFIFO(t *testing.T) {
	var q cmdQueue
	for i := 0; i < 100; i++ {
		q.push(command{op: opOffer, a: i})
	}
	batch := q.swap()
	if len(batch) != 100 {
		t.Fatalf("batch len = %d, want 100", len(batch))
	}
	for i, c := range batch {
		if c.a != i {
			t.Fatalf("batch[%d].a = %d, want %d (FIFO violated)", i, c.a, i)
		}
	}
}

func TestCmdQueueSwapEmptyIsNil(t *testing.T) {
	var q cmdQueue
	if got := q.swap(); got != nil {
		t.Fatalf("swap of empty queue = %v, want nil", got)
	}
	q.push(command{op: opObserve})
	if got := q.swap(); len(got) != 1 {
		t.Fatalf("swap after one push: len = %d, want 1", len(got))
	}
	if got := q.swap(); got != nil {
		t.Fatalf("second swap = %v, want nil", got)
	}
}

func TestCmdQueueRecycleReusesStorage(t *testing.T) {
	var q cmdQueue
	for i := 0; i < 64; i++ {
		q.push(command{op: opOffer, a: i})
	}
	batch := q.swap()
	cap1 := cap(batch)
	q.recycle(batch)

	// The next fill of the same size should land in the recycled storage:
	// after one more swap cycle the queue's buffers have reached their
	// steady-state capacity and pushes stop growing them.
	for i := 0; i < 64; i++ {
		q.push(command{op: opOffer, a: i})
	}
	batch2 := q.swap()
	if cap(batch2) < cap1 {
		t.Fatalf("recycled batch capacity shrank: %d -> %d", cap1, cap(batch2))
	}
	q.recycle(batch2)
}

func TestCmdQueueConcurrentProducers(t *testing.T) {
	var q cmdQueue
	const producers = 8
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.push(command{op: opOffer, a: p, v: float64(i)})
			}
		}(p)
	}

	// Consume concurrently, like a ticking shard would across barriers.
	got := make([]int, producers) // next expected v per producer
	total := 0
	for total < producers*perProducer {
		batch := q.swap()
		for _, c := range batch {
			if int(c.v) != got[c.a] {
				t.Fatalf("producer %d: command %v arrived before %d (per-producer order violated)",
					c.a, c.v, got[c.a])
			}
			got[c.a]++
			total++
		}
		q.recycle(batch)
	}
	wg.Wait()
	if batch := q.swap(); batch != nil {
		t.Fatalf("queue not empty after draining all commands: %d left", len(batch))
	}
}
