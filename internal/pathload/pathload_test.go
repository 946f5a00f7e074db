package pathload

import (
	"math"
	"math/rand"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/trace"
)

func pathWithCross(t *testing.T, cross trace.Generator) (*simnet.Network, *simnet.Path) {
	t.Helper()
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	in := net.AddLink(simnet.LinkConfig{Name: "in", CapacityMbps: 100})
	mid := net.AddLink(simnet.LinkConfig{Name: "mid", CapacityMbps: 100, Cross: cross})
	out := net.AddLink(simnet.LinkConfig{Name: "out", CapacityMbps: 100})
	return net, net.AddPath("p", in, mid, out)
}

func TestEstimateConstantCross(t *testing.T) {
	for _, crossRate := range []float64{20, 50, 70} {
		net, p := pathWithCross(t, trace.NewCBR(crossRate))
		est := New(net, p)
		got := est.Estimate(nil)
		want := 100 - crossRate
		if math.Abs(got-want) > 8 {
			t.Errorf("cross %v: estimate %.1f, want ~%.1f", crossRate, got, want)
		}
	}
}

func TestEstimateIdlePath(t *testing.T) {
	net, p := pathWithCross(t, nil)
	est := New(net, p)
	got := est.Estimate(nil)
	// An idle 100 Mbps path should measure near line rate.
	if got < 85 || got > 115 {
		t.Fatalf("idle path estimate %.1f, want ~100", got)
	}
}

func TestEstimateNoisyCross(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, p := pathWithCross(t, trace.NewNLANRLike(trace.DefaultNLANR(), rng))
	est := New(net, p)
	// Average several measurements; compare against the mean oracle value.
	var sum float64
	const k = 8
	oracle := 0.0
	oracleN := 0
	for i := 0; i < k; i++ {
		sum += est.Estimate(func(int64) {
			oracle += p.AvailMbps()
			oracleN++
		})
	}
	got := sum / k
	want := oracle / float64(oracleN)
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("noisy estimate %.1f vs oracle mean %.1f (>25%% off)", got, want)
	}
	t.Logf("probing estimate %.1f vs oracle %.1f", got, want)
}

func TestEstimatorHandsBackForeignPackets(t *testing.T) {
	net, p := pathWithCross(t, trace.NewCBR(40))
	var foreign int
	est := New(net, p)
	est.Deliver = func(pkt *simnet.Packet) {
		if pkt.Stream == 5 {
			foreign++
		}
	}
	// Application traffic already queued ahead of the probe train must be
	// handed back, not swallowed.
	const ahead = 20
	for i := 0; i < ahead; i++ {
		p.Send(net.NewPacket(5, 12000))
	}
	sentDuring := 0
	_ = est.Estimate(func(int64) {
		// And traffic that keeps flowing during the measurement (it queues
		// behind the train and delivers afterwards, to the caller).
		p.Send(net.NewPacket(5, 12000))
		sentDuring++
	})
	if foreign < ahead {
		t.Fatalf("handed back %d, want at least the %d queued-ahead packets", foreign, ahead)
	}
	// Drain the rest normally: conservation — nothing may be lost.
	after := 0
	for i := 0; i < 400 && foreign+after < ahead+sentDuring; i++ {
		net.Step()
		for _, pkt := range p.TakeDelivered() {
			if pkt.Stream == 5 {
				after++
			}
		}
	}
	if foreign+after != ahead+sentDuring {
		t.Fatalf("lost packets: handed %d + drained %d != sent %d", foreign, after, ahead+sentDuring)
	}
}

func TestEstimateTimeoutReturnsZero(t *testing.T) {
	// A path whose bottleneck is fully consumed never delivers the train.
	net, p := pathWithCross(t, trace.NewCBR(100))
	est := New(net, p)
	if got := est.Estimate(nil); got != 0 {
		t.Fatalf("saturated path estimate = %v, want 0", got)
	}
}
