package emulab

import (
	"testing"

	"iqpaths/internal/stats"
)

func TestBuildDefaults(t *testing.T) {
	tb := Build(Config{Seed: 1})
	if tb.Net == nil || tb.PathA == nil || tb.PathB == nil {
		t.Fatal("incomplete testbed")
	}
	if len(tb.PathA.Links()) != 3 || len(tb.PathB.Links()) != 3 {
		t.Fatal("each path should traverse 3 links")
	}
	if tb.PathA.Links()[1].Name() != "N-3:N-5" {
		t.Fatalf("path A bottleneck = %q", tb.PathA.Links()[1].Name())
	}
	if tb.PathB.Links()[1].Name() != "N-2:N-4" {
		t.Fatalf("path B bottleneck = %q", tb.PathB.Links()[1].Name())
	}
}

func TestPathAHigherAndStabler(t *testing.T) {
	// The paper's setup: path A has higher available bandwidth; path B has
	// larger variance relative to its mean.
	tb := Build(Config{Seed: 42})
	var a, b stats.Welford
	for i := 0; i < 30000; i++ {
		tb.Net.Step()
		a.Add(tb.PathA.AvailMbps())
		b.Add(tb.PathB.AvailMbps())
	}
	if a.Mean() <= b.Mean() {
		t.Fatalf("path A mean %v should exceed path B mean %v", a.Mean(), b.Mean())
	}
	cvA := a.StdDev() / a.Mean()
	cvB := b.StdDev() / b.Mean()
	if cvB <= cvA {
		t.Fatalf("path B cv %v should exceed path A cv %v", cvB, cvA)
	}
}

func TestBuildDeterministic(t *testing.T) {
	run := func() float64 {
		tb := Build(Config{Seed: 7})
		sum := 0.0
		for i := 0; i < 2000; i++ {
			tb.Net.Step()
			sum += tb.PathA.AvailMbps() + tb.PathB.AvailMbps()
		}
		return sum
	}
	if run() != run() {
		t.Fatal("testbed not deterministic under seed")
	}
}

// TestCustomCross checks that the synthesized cross traffic leaves path
// A's bottleneck within (0, capacity].
func TestCustomCross(t *testing.T) {
	tb := Build(Config{Seed: 1})
	tb.Net.Step()
	if tb.PathA.AvailMbps() <= 0 || tb.PathA.AvailMbps() > 100 {
		t.Fatalf("avail out of range: %v", tb.PathA.AvailMbps())
	}
}

func TestEndToEndTransfer(t *testing.T) {
	tb := Build(Config{Seed: 3})
	n := tb.Net
	delivered := 0
	for tick := 0; tick < 1000; tick++ {
		for i := 0; i < 20; i++ {
			tb.PathA.Send(n.NewPacket(0, 12000))
			tb.PathB.Send(n.NewPacket(1, 12000))
		}
		delivered += len(tb.PathA.TakeDelivered()) + len(tb.PathB.TakeDelivered())
		n.Step()
	}
	delivered += len(tb.PathA.TakeDelivered()) + len(tb.PathB.TakeDelivered())
	if delivered == 0 {
		t.Fatal("no packets crossed the testbed")
	}
}
