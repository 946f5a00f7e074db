package monitor

import (
	"math"
	"math/rand"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/trace"
)

// trainPath builds a three-hop 100 Mbps path whose middle hop carries
// cross and whose first hop queues at most queueLimit packets (0 = the
// simnet default).
func trainPath(cross trace.Generator, queueLimit int) (*simnet.Network, *simnet.Path) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	in := net.AddLink(simnet.LinkConfig{Name: "in", CapacityMbps: 100, QueueLimit: queueLimit})
	mid := net.AddLink(simnet.LinkConfig{Name: "mid", CapacityMbps: 100, Cross: cross})
	out := net.AddLink(simnet.LinkConfig{Name: "out", CapacityMbps: 100})
	return net, net.AddPath("p", in, mid, out)
}

// measure drives one train over p as the loop that owns the clock does:
// Start, then onTick (optional), Step, Take and Settle until the train
// settles. Deliveries the train does not take go to other (optional). It
// returns the sample the train fed its monitor, or 0 when it fed none.
func measure(net *simnet.Network, p *simnet.Path, onTick func(), other func(*simnet.Packet)) float64 {
	m := New("p", 500, 1)
	tr := NewTrain(net, p, m)
	if !tr.Start() {
		return 0
	}
	for !tr.Settle() {
		if onTick != nil {
			onTick()
		}
		net.Step()
		for _, pkt := range p.TakeDelivered() {
			if !tr.Take(pkt) && other != nil {
				other(pkt)
			}
		}
	}
	if m.Samples() == 0 {
		return 0
	}
	return m.MeanBandwidth()
}

func TestTrainConstantCross(t *testing.T) {
	for _, crossRate := range []float64{20, 50, 70} {
		net, p := trainPath(trace.NewCBR(crossRate), 0)
		got := measure(net, p, nil, nil)
		if want := 100 - crossRate; math.Abs(got-want) > 8 {
			t.Errorf("cross %v: estimate %.1f, want ~%.1f", crossRate, got, want)
		}
	}
}

func TestTrainIdlePath(t *testing.T) {
	net, p := trainPath(nil, 0)
	// An idle 100 Mbps path should measure near line rate.
	if got := measure(net, p, nil, nil); got < 85 || got > 115 {
		t.Fatalf("idle path estimate %.1f, want ~100", got)
	}
}

func TestTrainNoisyCross(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, p := trainPath(trace.NewNLANRLike(trace.DefaultNLANR(), rng), 0)
	// Average several trains; compare against the oracle's mean over the
	// ticks they were in flight.
	const k = 8
	var sum, oracle float64
	oracleN := 0
	for i := 0; i < k; i++ {
		sum += measure(net, p, func() {
			oracle += p.AvailMbps()
			oracleN++
		}, nil)
	}
	got, want := sum/k, oracle/float64(oracleN)
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("noisy estimate %.1f vs oracle mean %.1f (>25%% off)", got, want)
	}
	t.Logf("probing estimate %.1f vs oracle %.1f", got, want)
}

// TestTrainHandsBackAppPackets: application packets queued ahead of the
// train, and those sent while it is in flight, are left to the caller,
// and none is lost.
func TestTrainHandsBackAppPackets(t *testing.T) {
	net, p := trainPath(trace.NewCBR(40), 0)
	var handed int
	count := func(pkt *simnet.Packet) {
		if pkt.Stream == 5 {
			handed++
		}
	}
	const ahead = 20
	for i := 0; i < ahead; i++ {
		p.Send(net.NewPacket(5, 12000))
	}
	sentDuring := 0
	measure(net, p, func() {
		p.Send(net.NewPacket(5, 12000))
		sentDuring++
	}, count)
	if handed < ahead {
		t.Fatalf("handed back %d, want at least the %d queued-ahead packets", handed, ahead)
	}
	// Drain the rest normally: conservation — nothing may be lost.
	for i := 0; i < 400 && handed < ahead+sentDuring; i++ {
		net.Step()
		for _, pkt := range p.TakeDelivered() {
			count(pkt)
		}
	}
	if handed != ahead+sentDuring {
		t.Fatalf("lost packets: handed %d != sent %d", handed, ahead+sentDuring)
	}
}

func TestTrainTimeoutFeedsNothing(t *testing.T) {
	// A path whose bottleneck is fully consumed never delivers the train.
	net, p := trainPath(trace.NewCBR(100), 0)
	if got := measure(net, p, nil, nil); got != 0 {
		t.Fatalf("saturated path fed %v, want no sample", got)
	}
}

// TestTrainReleasesEveryProbe pins the packet-ownership contract: a train
// retires every probe it injected — the one its first hop refused, every
// delivered one, and the stragglers of a train that timed out — so the
// network's arena ends where it started.
func TestTrainReleasesEveryProbe(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		net, p := trainPath(nil, 0)
		var arena simnet.Arena
		net.SetArena(&arena)
		if measure(net, p, nil, nil) <= 0 {
			t.Fatal("train measured nothing")
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d probes outstanding after a completed train", n)
		}
	})
	t.Run("refused", func(t *testing.T) {
		net, p := trainPath(nil, 100) // the 101st probe is refused
		var arena simnet.Arena
		net.SetArena(&arena)
		if measure(net, p, nil, nil) <= 0 {
			t.Fatal("truncated train measured nothing")
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d probes outstanding after a truncated train", n)
		}
	})
	t.Run("stragglers", func(t *testing.T) {
		// 1 Mbps left drains the 4.8 Mbit train in ~480 ticks, past the
		// 400-tick timeout.
		net, p := trainPath(trace.NewCBR(99), 0)
		var arena simnet.Arena
		net.SetArena(&arena)
		m := New("p", 500, 1)
		tr := NewTrain(net, p, m)
		if !tr.Start() {
			t.Fatal("train did not start")
		}
		steps := 0
		for ; arena.Outstanding() > 0 && steps < 1000; steps++ {
			tr.Settle()
			net.Step()
			for _, pkt := range p.TakeDelivered() {
				if !tr.Take(pkt) {
					t.Fatalf("train left a probe: %v", pkt)
				}
			}
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d probes outstanding after %d steps", n, steps)
		}
		if m.Samples() != 1 || steps <= trainTimeoutTicks {
			t.Fatalf("timed-out train: %d samples after %d steps, want 1 after more than %d",
				m.Samples(), steps, trainTimeoutTicks)
		}
	})
}
