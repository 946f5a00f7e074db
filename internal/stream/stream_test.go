package stream

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iqpaths/internal/simnet"
)

func TestSpecDefaults(t *testing.T) {
	s := New(0, Spec{Name: "x", Kind: Probabilistic, RequiredMbps: 10})
	if s.PacketBits != 12000 {
		t.Fatalf("default packet bits = %v", s.PacketBits)
	}
	if s.QueueLimit != 20000 {
		t.Fatalf("default queue limit = %v", s.QueueLimit)
	}
	if s.Weight != 10 {
		t.Fatalf("weight should derive from required bw: %v", s.Weight)
	}
	if s.Probability != 0.95 {
		t.Fatalf("default probability = %v", s.Probability)
	}
	be := New(1, Spec{Name: "y"})
	if be.Weight != 1 {
		t.Fatalf("best-effort default weight = %v", be.Weight)
	}
}

func TestSpecString(t *testing.T) {
	for _, s := range []Spec{
		{Name: "a", Kind: Probabilistic, RequiredMbps: 3, Probability: 0.95},
		{Name: "b", Kind: ViolationBound, RequiredMbps: 5, MaxViolations: 2},
		{Name: "c", Kind: BestEffort},
	} {
		if s.String() == "" {
			t.Fatal("empty String")
		}
	}
	if BestEffort.String() != "best-effort" || GuaranteeKind(9).String() == "" {
		t.Fatal("kind strings")
	}
}

func TestQueueFIFO(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	s := New(0, Spec{Name: "x"})
	for i := 0; i < 10; i++ {
		if !s.Push(net.NewPacket(0, float64(1000+i))) {
			t.Fatal("push refused")
		}
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Peek().Bits != 1000 {
		t.Fatal("peek should see first packet")
	}
	for i := 0; i < 10; i++ {
		p := s.Pop()
		if p == nil || p.Bits != float64(1000+i) {
			t.Fatalf("pop %d out of order", i)
		}
	}
	if s.Pop() != nil || s.Peek() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestQueueLimitDrops(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	s := New(0, Spec{Name: "x", QueueLimit: 3})
	for i := 0; i < 5; i++ {
		s.Push(net.NewPacket(0, 100))
	}
	if s.Len() != 3 || s.Dropped != 2 || s.Enqueued != 3 {
		t.Fatalf("len=%d dropped=%d enqueued=%d", s.Len(), s.Dropped, s.Enqueued)
	}
}

func TestBitsAccounting(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	s := New(0, Spec{Name: "x"})
	s.Push(net.NewPacket(0, 100))
	s.Push(net.NewPacket(0, 200))
	if s.Bits() != 300 {
		t.Fatalf("bits = %v", s.Bits())
	}
	s.Pop()
	if s.Bits() != 200 {
		t.Fatalf("bits after pop = %v", s.Bits())
	}
}

// Property: after arbitrary Push/Pop/PushFront sequences the queue pops
// exactly the packets a reference FIFO expects, in its order, and the
// length, bit count and Dequeued counter stay consistent through
// rewinds and compactions. PushFront follows a Pop as in PGOS's dispatch
// when a path refuses the packet, also onto a queue the Pop just drained.
func TestQueueConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := simnet.New(0.01, rng)
		s := New(0, Spec{Name: "x", QueueLimit: 1 << 20})
		var want []*simnet.Packet // reference FIFO, head first
		bits := 0.0
		popped := uint64(0)
		for i := 0; i < 5000; i++ {
			// Phases of growth and drain: deep backlogs compact, and
			// drained queues rewind.
			pushP := 0.2
			if i%1000 < 300 {
				pushP = 0.7
			}
			if rng.Float64() < pushP {
				b := float64(1 + rng.Intn(1000))
				p := net.NewPacket(0, b)
				s.Push(p)
				want = append(want, p)
				bits += b
			} else if p := s.Pop(); p != nil {
				if len(want) == 0 || p != want[0] {
					return false
				}
				// A refused send hands the packet back: a fifth of the
				// time, and more often when the Pop drained (and so
				// rewound) the queue.
				if rng.Float64() < 0.2 || (s.Len() == 0 && rng.Intn(2) == 0) {
					s.PushFront(p)
					if s.Peek() != p {
						return false
					}
					continue
				}
				want = want[1:]
				bits -= p.Bits
				popped++
			} else if len(want) != 0 {
				return false
			}
			if s.Len() != len(want) || s.Bits() != bits || s.Dequeued != popped {
				return false
			}
		}
		for _, p := range want {
			if s.Pop() != p {
				return false
			}
		}
		return s.Len() == 0 && s.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// A stream that holds one packet at a time must keep a small backing
// array: Pop rewinds a drained queue instead of letting each Push land
// one slot further along. A backlog that never drains still compacts, so
// its array stays near twice the peak depth.
func TestQueueCapacityFollowsDepth(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	t.Run("one_in_flight", func(t *testing.T) {
		s := New(0, Spec{Name: "x"})
		for i := 0; i < 10000; i++ {
			p := net.NewPacket(0, 100)
			s.Push(p)
			if s.Pop() != p {
				t.Fatalf("cycle %d: pop returned another packet", i)
			}
		}
		if c := cap(s.queue); c > 2 {
			t.Fatalf("cap(queue) = %d after 10000 one-packet cycles, want <= 2", c)
		}
	})
	t.Run("deep_backlog", func(t *testing.T) {
		const peak = 1000
		s := New(0, Spec{Name: "x"})
		var want []*simnet.Packet
		for i := 0; i < peak; i++ {
			p := net.NewPacket(0, 100)
			s.Push(p)
			want = append(want, p)
		}
		// Depth alternates between peak-1 and peak and never drains.
		for i := 0; i < 100*peak; i++ {
			if s.Pop() != want[0] {
				t.Fatalf("cycle %d: pop out of order", i)
			}
			want = want[1:]
			p := net.NewPacket(0, 100)
			s.Push(p)
			want = append(want, p)
		}
		if c := cap(s.queue); c > 5*peak/2 {
			t.Fatalf("cap(queue) = %d at peak depth %d, want <= %d", c, peak, 5*peak/2)
		}
		for i, p := range want {
			if s.Pop() != p {
				t.Fatalf("drain %d: pop out of order", i)
			}
		}
	})
}

func TestRequiredPacketsPerWindow(t *testing.T) {
	s := New(0, Spec{Name: "x", Kind: Probabilistic, RequiredMbps: 12, PacketBits: 12000})
	// 12 Mbps over 1 s = 12 Mbit = 1000 packets.
	if got := s.RequiredPacketsPerWindow(1); got != 1000 {
		t.Fatalf("x = %d, want 1000", got)
	}
	// Rounds up.
	s2 := New(1, Spec{Name: "y", Kind: Probabilistic, RequiredMbps: 0.0121, PacketBits: 12000})
	if got := s2.RequiredPacketsPerWindow(1); got != 2 {
		t.Fatalf("x = %d, want 2 (round up)", got)
	}
	// Explicit window constraint wins.
	s3 := New(2, Spec{Name: "z", WindowX: 7, WindowY: 10})
	if got := s3.RequiredPacketsPerWindow(1); got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
	// Best-effort has no requirement.
	s4 := New(3, Spec{Name: "w"})
	if got := s4.RequiredPacketsPerWindow(1); got != 0 {
		t.Fatalf("x = %d, want 0", got)
	}
}

func TestWindowConstraintRatio(t *testing.T) {
	if got := New(0, Spec{Name: "a", WindowX: 3, WindowY: 4}).WindowConstraintRatio(); got != 0.75 {
		t.Fatalf("ratio = %v", got)
	}
	if got := New(1, Spec{Name: "b", Kind: Probabilistic, RequiredMbps: 1}).WindowConstraintRatio(); got != 1 {
		t.Fatalf("probabilistic default ratio = %v", got)
	}
	if got := New(2, Spec{Name: "c"}).WindowConstraintRatio(); got != 0 {
		t.Fatalf("best-effort ratio = %v", got)
	}
}
