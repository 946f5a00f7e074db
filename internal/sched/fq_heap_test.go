package sched

import (
	"math/rand"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// TestFQPickStreamMatchesScan drives a randomized arrival/dispatch mix
// and pins every heap selection to the reference linear scan it replaced.
func TestFQPickStreamMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		streams := make([]*stream.Stream, 8)
		for i := range streams {
			streams[i] = stream.New(i, stream.Spec{
				Name:   "s",
				Weight: 0.5 + rng.Float64()*4,
			})
		}
		p := &fakePath{}
		fq := newFQ("MSFQ", streams, []PathService{p}, 64)
		for step := 0; step < 4000; step++ {
			// Random arrivals, including ties in served via equal weights.
			for _, s := range streams {
				if rng.Float64() < 0.4 {
					s.Push(pkt(s.ID, 8000))
				}
			}
			got, want := fq.pickStream(), fq.pickStreamScan()
			if got != want {
				t.Fatalf("seed %d step %d: heap picked %d, scan %d", seed, step, got, want)
			}
			if got >= 0 && rng.Float64() < 0.8 {
				s := streams[got]
				q := s.Pop()
				fq.served[got] += q.Bits / s.Weight
			}
			// Occasionally drain a random stream behind the heap's back via
			// Pop (fires the observer).
			if rng.Float64() < 0.05 {
				s := streams[rng.Intn(len(streams))]
				for s.Len() > 0 {
					s.Pop()
				}
			}
		}
	}
}

// TestFQTickSteadyTickZeroAlloc checks that a warm FQ dispatch loop does
// not allocate: arrivals reuse a pre-built packet ring and the path is a
// no-op sink, so any allocation must come from the scheduler itself.
func TestFQTickSteadyTickZeroAlloc(t *testing.T) {
	streams := make([]*stream.Stream, 32)
	for i := range streams {
		streams[i] = stream.New(i, stream.Spec{Name: "s", Weight: float64(1 + i%4)})
	}
	sink := &drainPath{}
	// paceLimit above the per-tick arrival count so every tick fully
	// drains: queue storage stops growing once warm.
	fq := newFQ("MSFQ", streams, []PathService{sink}, 64)
	ring := make([]*simnet.Packet, 4096)
	for i := range ring {
		ring[i] = &simnet.Packet{ID: uint64(i + 1), Bits: 8000}
	}
	next := 0
	tick := func() {
		for _, s := range streams {
			p := ring[next%len(ring)]
			next++
			p.Stream = s.ID
			s.Push(p)
		}
		sink.queued = 0
		fq.Tick(0)
	}
	for i := 0; i < 200; i++ {
		tick() // warm: heap, dirtyList, and queue storage reach capacity
	}
	if avg := testing.AllocsPerRun(500, tick); avg > 0.1 {
		t.Fatalf("steady-state FQ tick allocates %.2f times", avg)
	}
}

// drainPath accepts everything and retains nothing.
type drainPath struct{ queued int }

func (d *drainPath) ID() int      { return 0 }
func (d *drainPath) Name() string { return "drain" }
func (d *drainPath) Send(p *simnet.Packet) bool {
	d.queued++
	return true
}
func (d *drainPath) QueuedPackets() int { return d.queued }

// BenchmarkFQPickStream measures selection cost at scale (the motivation
// for replacing the O(S) scan).
func BenchmarkFQPickStream(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(sizeName(n), func(b *testing.B) {
			streams := make([]*stream.Stream, n)
			for i := range streams {
				streams[i] = stream.New(i, stream.Spec{Name: "s", Weight: float64(1 + i%7)})
			}
			fq := newFQ("MSFQ", streams, []PathService{&drainPath{}}, 8)
			for _, s := range streams {
				s.Push(&simnet.Packet{Bits: 8000})
				s.Push(&simnet.Packet{Bits: 8000})
			}
			fq.pickStream()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				si := fq.pickStream()
				if si >= 0 {
					s := streams[si]
					q := s.Pop()
					fq.served[si] += q.Bits / s.Weight
					s.Push(q)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 100:
		return "streams=100"
	case 1000:
		return "streams=1000"
	case 5000:
		return "streams=5000"
	}
	return "streams"
}
