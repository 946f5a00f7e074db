package iqpaths_test

// End-to-end tests of the public API surface — what a downstream user of
// the library actually does, exercised without touching internal packages.

import (
	"math/rand"
	"testing"
	"time"

	"iqpaths"
)

func TestPublicAPIGuaranteedStreamOverTestbed(t *testing.T) {
	tb := iqpaths.BuildTestbed(iqpaths.TestbedConfig{Seed: 3})
	net := tb.Net

	crit := iqpaths.NewStream(0, iqpaths.StreamSpec{
		Name: "crit", Kind: iqpaths.Probabilistic, RequiredMbps: 10, Probability: 0.95,
	})
	bulk := iqpaths.NewStream(1, iqpaths.StreamSpec{Name: "bulk"})
	streams := []*iqpaths.Stream{crit, bulk}
	critSrc := iqpaths.NewRateSource(net, crit, 10)
	bulkSrc := iqpaths.NewBacklogSource(net, bulk, 1000)

	monA := iqpaths.NewPathMonitor("A", 500, 100)
	monB := iqpaths.NewPathMonitor("B", 500, 100)
	sampA := iqpaths.NewSampler(tb.PathA, monA)
	sampB := iqpaths.NewSampler(tb.PathB, monB)

	sched := iqpaths.NewPGOS(iqpaths.PGOSConfig{
		TwSec: 1, TickSeconds: net.TickSeconds(),
	}, streams, []iqpaths.PathService{tb.PathA, tb.PathB},
		[]*iqpaths.PathMonitor{monA, monB})

	var series []float64
	acc := 0.0
	const ticks = 9000 // 90 s
	for tick := int64(0); tick < ticks; tick++ {
		critSrc.Tick()
		bulkSrc.Tick()
		sched.Tick(tick)
		net.Step()
		if tick%10 == 0 {
			sampA.Sample()
			sampB.Sample()
		}
		for _, p := range []*iqpaths.Path{tb.PathA, tb.PathB} {
			for _, pkt := range p.TakeDelivered() {
				if pkt.Stream == 0 {
					acc += pkt.Bits
				}
			}
		}
		if (tick+1)%100 == 0 {
			series = append(series, acc/1e6)
			acc = 0
		}
	}
	sum := iqpaths.Summarize(series[30:]) // post warm-up
	if sum.Mean < 9.8 || sum.Mean > 10.2 {
		t.Fatalf("critical mean = %.2f, want ~10", sum.Mean)
	}
	if got := sum.FractionAtLeast(10 * 0.985); got < 0.9 {
		t.Fatalf("guarantee held only %.3f of the time", got)
	}
	if sched.Mapping().Committed[0]+sched.Mapping().Committed[1] < 9 {
		t.Fatal("mapping should commit the required rate somewhere")
	}
}

func TestPublicAPIGuaranteeMath(t *testing.T) {
	mon := iqpaths.NewPathMonitor("x", 100, 10)
	for i := 1; i <= 100; i++ {
		mon.ObserveBandwidth(float64(i))
	}
	cdf := mon.CDF()
	if r := iqpaths.FeasibleRate(cdf, 0.95, 0); r < 4 || r > 6 {
		t.Fatalf("FeasibleRate = %v", r)
	}
	if p := iqpaths.GuaranteeProbability(cdf, 834, 12000, 1, 0); p < 0.89 || p > 0.92 {
		t.Fatalf("GuaranteeProbability = %v", p)
	}
	if ez := iqpaths.ExpectedViolations(cdf, 10000, 12000, 1, 0); ez <= 0 {
		t.Fatalf("ExpectedViolations = %v", ez)
	}
	if b := iqpaths.BufferBound(cdf, 50, 1, 0.95); b <= 0 {
		t.Fatalf("BufferBound = %v", b)
	}
}

func TestPublicAPIOverlayQueries(t *testing.T) {
	g := iqpaths.NewOverlay()
	s := g.AddNode("server", iqpaths.ServerNode)
	r1 := g.AddNode("r1", iqpaths.RouterNode)
	r2 := g.AddNode("r2", iqpaths.RouterNode)
	c := g.AddNode("client", iqpaths.ClientNode)
	g.AddDuplex(s, r1)
	g.AddDuplex(r1, c)
	g.AddDuplex(s, r2)
	g.AddDuplex(r2, c)
	if got := g.DisjointPaths(s, c); len(got) != 2 {
		t.Fatalf("disjoint paths = %d", len(got))
	}
}

func TestPublicAPITraceGeneration(t *testing.T) {
	g := iqpaths.NewNLANRLike(iqpaths.DefaultNLANR(), rand.New(rand.NewSource(4)))
	for i := 0; i < 100; i++ {
		if v := g.Next(); v < 0 {
			t.Fatal("negative cross traffic")
		}
	}
}

func TestPublicAPILiveTransport(t *testing.T) {
	l, err := iqpaths.ListenRUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := iqpaths.DialRUDP(l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	path := iqpaths.NewTransportPath(0, "live", conn, 64)
	defer path.Close()
	if !path.Send(&iqpaths.Packet{Stream: 3, Bits: 9600}) {
		t.Fatal("send refused")
	}
	m, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Stream != 3 || len(m.Payload) != 1200 {
		t.Fatalf("message = %+v", m)
	}
}

func TestPublicAPICustomNetwork(t *testing.T) {
	net := iqpaths.NewNetwork(0.01, rand.New(rand.NewSource(1)))
	l := net.AddLink(iqpaths.LinkConfig{Name: "l", CapacityMbps: 100})
	p := net.AddPath("p", l)
	p.Send(net.NewPacket(0, 12000))
	net.Step()
	net.Step()
	if len(p.TakeDelivered()) != 1 {
		t.Fatal("custom network delivery failed")
	}
}
