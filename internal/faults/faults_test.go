package faults

import (
	"math/rand"
	"reflect"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/telemetry"
)

// twoLinkNet builds a 2-hop network with one path over links "a" → "b".
func twoLinkNet(seed int64, queueLimit int) (*simnet.Network, *simnet.Path) {
	net := simnet.New(0.01, rand.New(rand.NewSource(seed)))
	a := net.AddLink(simnet.LinkConfig{Name: "a", CapacityMbps: 10, QueueLimit: queueLimit})
	b := net.AddLink(simnet.LinkConfig{Name: "b", CapacityMbps: 10, QueueLimit: queueLimit})
	return net, net.AddPath("p", a, b)
}

func TestNewScenarioUnknownLink(t *testing.T) {
	net, _ := twoLinkNet(1, 10)
	if _, err := NewScenario("x", net, Outage("nope", 0, 10)); err == nil {
		t.Fatal("expected error for unknown link")
	}
}

func TestOutageStallsAndRecovers(t *testing.T) {
	net, path := twoLinkNet(1, 10)
	scn, err := NewScenario("outage", net, Outage("a", 5, 20))
	if err != nil {
		t.Fatal(err)
	}
	link := net.Link("a")
	delivered := 0
	for tick := int64(0); tick < 60; tick++ {
		scn.Apply(tick)
		// Offer one small packet per tick (well under capacity).
		path.Send(net.NewPacket(0, 1000))
		net.Step()
		delivered += len(path.TakeDelivered())
		switch {
		case tick >= 5 && tick < 20:
			if !link.IsDown() {
				t.Fatalf("tick %d: link should be down", tick)
			}
			if link.AvailMbps() != 0 {
				t.Fatalf("tick %d: downed link AvailMbps = %v", tick, link.AvailMbps())
			}
		case tick >= 20:
			if link.IsDown() {
				t.Fatalf("tick %d: link should be restored", tick)
			}
		}
	}
	if !scn.Done() {
		t.Fatal("scenario should be done")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered after recovery")
	}
	// Queued packets survived the outage: everything offered while the
	// queue had room must eventually deliver.
	st := path.Stats()
	if st.Dropped > 0 {
		t.Fatalf("intermediate drops: %+v", st)
	}
}

func TestOutageRaisesBlockedPath(t *testing.T) {
	net, path := twoLinkNet(1, 4)
	scn, err := NewScenario("blocked", net, Outage("a", 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 10; tick++ {
		scn.Apply(tick)
		path.Send(net.NewPacket(0, 1000))
		net.Step()
	}
	if !path.Blocked() {
		t.Fatal("downed first hop should block the path")
	}
	if path.Stats().Rejected == 0 {
		t.Fatal("sends into a full queue should be rejected")
	}
}

func TestDegradeScalesCapacity(t *testing.T) {
	net, _ := twoLinkNet(1, 10)
	scn, _ := NewScenario("degrade", net, Degrade("a", 2, 4, 0.25))
	l := net.Link("a")
	for tick := int64(0); tick < 6; tick++ {
		scn.Apply(tick)
		net.Step()
		switch {
		case tick >= 2 && tick < 4:
			if l.AvailMbps() != 2.5 {
				t.Fatalf("tick %d: avail=%v, want 2.5", tick, l.AvailMbps())
			}
		case tick >= 4:
			if l.AvailMbps() != 10 {
				t.Fatalf("tick %d: avail=%v, want 10", tick, l.AvailMbps())
			}
		}
	}
}

func TestLossStormDropsAndRecovers(t *testing.T) {
	net, path := twoLinkNet(7, 1000)
	scn, _ := NewScenario("storm", net, LossStorm("a", 0, 200, 1.0, 0))
	for tick := int64(0); tick < 400; tick++ {
		scn.Apply(tick)
		path.Send(net.NewPacket(0, 1000))
		net.Step()
	}
	st := net.Link("a").Stats()
	if st.LossDrops == 0 {
		t.Fatal("loss storm dropped nothing")
	}
	if net.Link("a").LossProb() != 0 {
		t.Fatal("baseline loss not restored")
	}
	// After the storm the path delivers again.
	if len(path.TakeDelivered()) == 0 {
		t.Fatal("no deliveries after the storm cleared")
	}
}

func TestFlapSchedule(t *testing.T) {
	s := Flap("a", 10, 5, 15, 3)
	if len(s) != 6 {
		t.Fatalf("flap events = %d, want 6", len(s))
	}
	wantTicks := []int64{10, 15, 30, 35, 50, 55}
	for i, e := range s {
		if e.AtTick != wantTicks[i] {
			t.Fatalf("event %d at %d, want %d", i, e.AtTick, wantTicks[i])
		}
		wantKind := LinkDown
		if i%2 == 1 {
			wantKind = LinkUp
		}
		if e.Kind != wantKind {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, wantKind)
		}
	}
}

func TestCorrelatedOutageAndCompose(t *testing.T) {
	net, _ := twoLinkNet(1, 10)
	sched := Compose(
		CorrelatedOutage([]string{"a", "b"}, 1, 3),
		Degrade("b", 5, 6, 0.5),
	)
	scn, err := NewScenario("multi", net, sched)
	if err != nil {
		t.Fatal(err)
	}
	scn.Apply(1)
	if scn.LinksDown() != 2 {
		t.Fatalf("links down = %d, want 2", scn.LinksDown())
	}
	scn.Apply(3)
	if scn.LinksDown() != 0 {
		t.Fatalf("links down after recovery = %d", scn.LinksDown())
	}
	scn.Apply(10)
	if !scn.Done() || scn.Applied() != uint64(len(sched)) {
		t.Fatalf("done=%v applied=%d want %d", scn.Done(), scn.Applied(), len(sched))
	}
}

func TestScenarioTelemetry(t *testing.T) {
	net, _ := twoLinkNet(1, 10)
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(net, 64)
	scn, _ := NewScenario("tel", net, Outage("a", 2, 8))
	scn.SetTelemetry(reg, tracer)
	for tick := int64(0); tick < 10; tick++ {
		scn.Apply(tick)
		net.Step()
	}
	downs := reg.Counter("iqpaths_faults_events_total", "", "kind", "link_down")
	ups := reg.Counter("iqpaths_faults_events_total", "", "kind", "link_up")
	if downs.Value() != 1 || ups.Value() != 1 {
		t.Fatalf("event counters: down=%d up=%d", downs.Value(), ups.Value())
	}
	if g := reg.Gauge("iqpaths_faults_links_down", "").Value(); g != 0 {
		t.Fatalf("links-down gauge = %v after recovery", g)
	}
	events, _ := tracer.Events()
	var names []string
	for _, e := range events {
		names = append(names, e.Name)
	}
	if want := []string{"fault:link_down", "fault:link_up"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("trace events %v, want %v", names, want)
	}
}

// TestScenarioDeterminism replays the same seeded network + schedule twice
// and requires identical link statistics — the contract RunFaults rests on.
func TestScenarioDeterminism(t *testing.T) {
	runOnce := func() simnet.LinkStats {
		net, path := twoLinkNet(99, 50)
		scn, _ := NewScenario("det", net, Compose(
			Outage("a", 10, 40),
			LossStorm("b", 60, 120, 0.3, 0),
			Flap("a", 150, 10, 10, 4),
		))
		for tick := int64(0); tick < 300; tick++ {
			scn.Apply(tick)
			path.Send(net.NewPacket(0, 5000))
			net.Step()
			path.TakeDelivered()
		}
		return net.Link("a").Stats()
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic replay:\n%+v\n%+v", a, b)
	}
}

func BenchmarkScenarioApply(b *testing.B) {
	net, _ := twoLinkNet(1, 10)
	sched := Flap("a", 0, 1, 1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scn, _ := NewScenario("bench", net, sched)
		b.StartTimer()
		for tick := int64(0); tick < 2000; tick++ {
			scn.Apply(tick)
		}
	}
}
