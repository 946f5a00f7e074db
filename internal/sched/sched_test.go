package sched

import (
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

type fakePath struct {
	id     int
	name   string
	sent   []*simnet.Packet
	queued int
	refuse bool
}

func (f *fakePath) ID() int      { return f.id }
func (f *fakePath) Name() string { return f.name }
func (f *fakePath) Send(p *simnet.Packet) bool {
	if f.refuse {
		return false
	}
	f.sent = append(f.sent, p)
	f.queued++
	return true
}
func (f *fakePath) QueuedPackets() int { return f.queued }

var _ PathService = (*fakePath)(nil)

var pktID uint64

func pkt(st int, bits float64) *simnet.Packet {
	pktID++
	return &simnet.Packet{ID: pktID, Stream: st, Bits: bits}
}

func fill(s *stream.Stream, n int, bits float64) {
	for i := 0; i < n; i++ {
		s.Push(pkt(s.ID, bits))
	}
}

func countByStream(pkts []*simnet.Packet) map[int]int {
	m := map[int]int{}
	for _, p := range pkts {
		m[p.Stream]++
	}
	return m
}

func TestFQPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty streams")
		}
	}()
	NewWFQ(nil, &fakePath{}, 0)
}

func TestWFQProportionalShares(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 3})
	s2 := stream.New(1, stream.Spec{Name: "b", Weight: 1})
	fill(s1, 1000, 12000)
	fill(s2, 1000, 12000)
	p := &fakePath{id: 0, name: "P"}
	fq := NewWFQ([]*stream.Stream{s1, s2}, p, 400)
	fq.Tick(0)
	got := countByStream(p.sent)
	// 400 packets at 3:1 → 300/100.
	if got[0] < 290 || got[0] > 310 || got[1] < 90 || got[1] > 110 {
		t.Fatalf("WFQ shares = %v, want ~300/100", got)
	}
}

func TestWFQUnequalPacketSizes(t *testing.T) {
	// Equal weights, stream 0 sends double-size packets → half the count.
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 1, PacketBits: 24000})
	s2 := stream.New(1, stream.Spec{Name: "b", Weight: 1, PacketBits: 12000})
	fill(s1, 1000, 24000)
	fill(s2, 1000, 12000)
	p := &fakePath{id: 0, name: "P"}
	fq := NewWFQ([]*stream.Stream{s1, s2}, p, 300)
	fq.Tick(0)
	got := countByStream(p.sent)
	bits0, bits1 := float64(got[0])*24000, float64(got[1])*12000
	ratio := bits0 / bits1
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("WFQ bit shares unequal: %v vs %v", bits0, bits1)
	}
}

func TestMSFQUsesAllPaths(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 1})
	fill(s1, 1000, 12000)
	pA := &fakePath{id: 0, name: "A"}
	pB := &fakePath{id: 1, name: "B"}
	fq := NewMSFQ([]*stream.Stream{s1}, []PathService{pA, pB}, 100)
	fq.Tick(0)
	if len(pA.sent) != 100 || len(pB.sent) != 100 {
		t.Fatalf("MSFQ should fill both paths to pace: %d/%d", len(pA.sent), len(pB.sent))
	}
}

func TestMSFQMaintainsAggregateProportion(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 2})
	s2 := stream.New(1, stream.Spec{Name: "b", Weight: 1})
	fill(s1, 2000, 12000)
	fill(s2, 2000, 12000)
	pA := &fakePath{id: 0, name: "A"}
	pB := &fakePath{id: 1, name: "B"}
	fq := NewMSFQ([]*stream.Stream{s1, s2}, []PathService{pA, pB}, 600)
	fq.Tick(0)
	got := countByStream(append(append([]*simnet.Packet{}, pA.sent...), pB.sent...))
	total := got[0] + got[1]
	if total == 0 {
		t.Fatal("nothing sent")
	}
	frac := float64(got[0]) / float64(total)
	if frac < 0.63 || frac > 0.70 {
		t.Fatalf("aggregate share = %v, want ~2/3", frac)
	}
}

func TestFQSkipsEmptyStreams(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 1})
	s2 := stream.New(1, stream.Spec{Name: "b", Weight: 100}) // empty
	fill(s1, 50, 12000)
	p := &fakePath{id: 0, name: "P"}
	fq := NewWFQ([]*stream.Stream{s1, s2}, p, 100)
	fq.Tick(0)
	if len(p.sent) != 50 {
		t.Fatalf("sent %d, want all 50 from the busy stream", len(p.sent))
	}
}

func TestFQStopsWhenBlocked(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a", Weight: 1})
	fill(s1, 10, 12000)
	p := &fakePath{id: 0, name: "P", refuse: true}
	fq := NewWFQ([]*stream.Stream{s1}, p, 100)
	fq.Tick(0) // must terminate despite refusal
	if len(p.sent) != 0 {
		t.Fatal("refusing path accepted packets?")
	}
}

func TestOptSchedGuaranteedExactRate(t *testing.T) {
	crit := stream.New(0, stream.Spec{Name: "crit", Kind: stream.Probabilistic, RequiredMbps: 12})
	bulk := stream.New(1, stream.Spec{Name: "bulk"})
	fill(crit, 10000, 12000)
	fill(bulk, 10000, 12000)
	pA := &fakePath{id: 0, name: "A"}
	avail := func(int) float64 { return 50 }
	o := NewOptSched([]*stream.Stream{crit, bulk}, []PathService{pA}, avail, 0.01, 1<<30)
	for tick := int64(0); tick < 100; tick++ { // 1 simulated second
		o.Tick(tick)
		pA.queued = 0
	}
	got := countByStream(pA.sent)
	// crit: 12 Mbps = 1000 packets/s.
	if got[0] < 990 || got[0] > 1010 {
		t.Fatalf("critical stream got %d packets, want ~1000", got[0])
	}
	// bulk takes the rest of the 50 Mbps budget: ~38 Mbps ≈ 3160 pkts.
	if got[1] < 3000 || got[1] > 3350 {
		t.Fatalf("bulk got %d packets, want ~3160", got[1])
	}
}

func TestOptSchedSpreadsOverRichestPath(t *testing.T) {
	crit := stream.New(0, stream.Spec{Name: "crit", Kind: stream.Probabilistic, RequiredMbps: 10})
	fill(crit, 10000, 12000)
	pA := &fakePath{id: 0, name: "A"}
	pB := &fakePath{id: 1, name: "B"}
	avail := func(id int) float64 {
		if id == 0 {
			return 40
		}
		return 5
	}
	o := NewOptSched([]*stream.Stream{crit}, []PathService{pA, pB}, avail, 0.01, 1<<30)
	for tick := int64(0); tick < 100; tick++ {
		o.Tick(tick)
		pA.queued, pB.queued = 0, 0
	}
	if len(pA.sent) <= len(pB.sent) {
		t.Fatalf("oracle should prefer the rich path: %d vs %d", len(pA.sent), len(pB.sent))
	}
}

func TestOptSchedPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOptSched(nil, []PathService{&fakePath{}}, func(int) float64 { return 1 }, 0.01, 0) },
		func() {
			NewOptSched([]*stream.Stream{stream.New(0, stream.Spec{Name: "x"})}, []PathService{&fakePath{}}, nil, 0.01, 0)
		},
		func() {
			NewOptSched([]*stream.Stream{stream.New(0, stream.Spec{Name: "x"})}, []PathService{&fakePath{}}, func(int) float64 { return 1 }, 0, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRoundRobinAlternatesPathsAndStreams(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a"})
	s2 := stream.New(1, stream.Spec{Name: "b"})
	fill(s1, 100, 12000)
	fill(s2, 100, 12000)
	pA := &fakePath{id: 0, name: "A"}
	pB := &fakePath{id: 1, name: "B"}
	rr := NewRoundRobin([]*stream.Stream{s1, s2}, []PathService{pA, pB}, 50)
	rr.Tick(0)
	if len(pA.sent) != 50 || len(pB.sent) != 50 {
		t.Fatalf("round robin fill: %d/%d", len(pA.sent), len(pB.sent))
	}
	gotA := countByStream(pA.sent)
	if gotA[0] != 25 || gotA[1] != 25 {
		t.Fatalf("stream alternation on A: %v", gotA)
	}
}

func TestRoundRobinSkipsBlockedPath(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a"})
	fill(s1, 100, 12000)
	pA := &fakePath{id: 0, name: "A", queued: 1 << 20}
	pB := &fakePath{id: 1, name: "B"}
	rr := NewRoundRobin([]*stream.Stream{s1}, []PathService{pA, pB}, 50)
	rr.Tick(0)
	if len(pA.sent) != 0 || len(pB.sent) != 50 {
		t.Fatalf("blocked path not skipped: %d/%d", len(pA.sent), len(pB.sent))
	}
}

func TestPartitionedPinsStreams(t *testing.T) {
	s1 := stream.New(0, stream.Spec{Name: "a"})
	s2 := stream.New(1, stream.Spec{Name: "b"})
	fill(s1, 60, 12000)
	fill(s2, 60, 12000)
	pA := &fakePath{id: 0, name: "A"}
	pB := &fakePath{id: 1, name: "B"}
	pt := NewPartitioned([]*stream.Stream{s1, s2}, []PathService{pA, pB}, 100)
	pt.Tick(0)
	if c := countByStream(pA.sent); c[1] != 0 || c[0] != 60 {
		t.Fatalf("path A should carry only stream 0: %v", c)
	}
	if c := countByStream(pB.sent); c[0] != 0 || c[1] != 60 {
		t.Fatalf("path B should carry only stream 1: %v", c)
	}
}

func TestRoundRobinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRoundRobin(nil, nil, 0)
}

func TestPartitionedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPartitioned(nil, nil, 0)
}
