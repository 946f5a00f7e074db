package video

import (
	"math/rand"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

func newNet() *simnet.Network {
	return simnet.New(0.01, rand.New(rand.NewSource(1)))
}

func TestSourceLayerSpecs(t *testing.T) {
	src := NewSource(newNet(), Config{}, rand.New(rand.NewSource(2)))
	ss := src.Streams()
	if len(ss) != 3 {
		t.Fatalf("layers = %d, want 3 (base + 2 enh)", len(ss))
	}
	if ss[0].Kind != stream.Probabilistic || ss[0].Probability != 0.99 {
		t.Fatalf("base layer spec: %+v", ss[0].Spec)
	}
	if ss[1].Kind != stream.Probabilistic || ss[1].Probability != 0.95 {
		t.Fatalf("enh1 spec: %+v", ss[1].Spec)
	}
	if ss[2].Kind != stream.BestEffort || ss[2].Weight != 8 {
		t.Fatalf("last layer must be weighted best-effort: %+v", ss[2].Spec)
	}
}

func TestSourceRateAndGOP(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{VBRSigma: 0.0001, SceneChangeProb: 1e-12}, rand.New(rand.NewSource(3)))
	for i := 0; i < 1000; i++ { // 10 s
		src.Tick()
		net.Step()
	}
	if f := src.Frames(); f < 300 || f > 301 {
		t.Fatalf("frames in 10 s = %d, want ~300", f)
	}
	// Base layer rate ≈ 2 Mbps over 10 s.
	if mbps := src.Streams()[0].Bits() / 1e6 / 10; mbps < 1.8 || mbps > 2.2 {
		t.Fatalf("base layer offered %.2f Mbps, want ~2", mbps)
	}
	// I frames are bigger than P/B frames.
	iPkts := src.ExpectedPackets(1)[0] // frame 1 is an I frame
	pPkts := src.ExpectedPackets(2)[0]
	if iPkts <= pPkts {
		t.Fatalf("I frame (%d pkts) should exceed P frame (%d)", iPkts, pPkts)
	}
}

func TestReceiverScoresPerfectDelivery(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{DeadlineFrames: 2}, rand.New(rand.NewSource(4)))
	rcv := NewReceiver(src)
	// Deliver everything instantly for 2 simulated seconds.
	for tick := int64(0); tick < 200; tick++ {
		src.Tick()
		for _, st := range src.Streams() {
			for {
				p := st.Pop()
				if p == nil {
					break
				}
				rcv.OnPacket(p)
			}
		}
		net.Step()
		rcv.Tick(net.Tick())
	}
	rep := rcv.Report()
	if rep.FramesScored == 0 {
		t.Fatal("no frames scored")
	}
	if rep.BaseMissRate != 0 {
		t.Fatalf("perfect delivery missed base frames: %v", rep)
	}
	if rep.MeanQuality < 2.99 {
		t.Fatalf("perfect delivery quality = %v, want 3 layers", rep.MeanQuality)
	}
	if rep.QualityStdDev > 0.01 {
		t.Fatalf("perfect delivery should be perfectly smooth: %v", rep)
	}
}

func TestReceiverScoresDroppedEnhancement(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{DeadlineFrames: 2}, rand.New(rand.NewSource(5)))
	rcv := NewReceiver(src)
	for tick := int64(0); tick < 200; tick++ {
		src.Tick()
		for layer, st := range src.Streams() {
			for {
				p := st.Pop()
				if p == nil {
					break
				}
				if layer == 2 {
					continue // drop the top enhancement layer entirely
				}
				rcv.OnPacket(p)
			}
		}
		net.Step()
		rcv.Tick(net.Tick())
	}
	rep := rcv.Report()
	if rep.BaseMissRate != 0 {
		t.Fatalf("base should still play: %v", rep)
	}
	if rep.MeanQuality < 1.99 || rep.MeanQuality > 2.01 {
		t.Fatalf("quality = %v, want 2 layers", rep.MeanQuality)
	}
}

func TestReceiverCountsBaseMisses(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{DeadlineFrames: 1}, rand.New(rand.NewSource(6)))
	rcv := NewReceiver(src)
	for tick := int64(0); tick < 100; tick++ {
		src.Tick()
		for _, st := range src.Streams() {
			for st.Pop() != nil {
				// drop everything
			}
		}
		net.Step()
		rcv.Tick(net.Tick())
	}
	rep := rcv.Report()
	if rep.FramesScored == 0 || rep.BaseMissRate != 1 {
		t.Fatalf("all frames should miss: %v", rep)
	}
}

func TestSourceForget(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{}, rand.New(rand.NewSource(7)))
	for tick := int64(0); tick < 100; tick++ {
		src.Tick()
		net.Step()
	}
	n := src.Frames()
	src.Forget(n - 1)
	if src.ExpectedPackets(1) != nil {
		t.Fatal("old frame bookkeeping not forgotten")
	}
	if src.ExpectedPackets(n) == nil {
		t.Fatal("recent frame forgotten too eagerly")
	}
}

func TestFGSPartialCredit(t *testing.T) {
	net := newNet()
	src := NewSource(net, Config{DeadlineFrames: 2, VBRSigma: 0.0001}, rand.New(rand.NewSource(8)))
	rcv := NewReceiver(src)
	for tick := int64(0); tick < 200; tick++ {
		src.Tick()
		for layer, st := range src.Streams() {
			expected := 0
			for {
				p := st.Pop()
				if p == nil {
					break
				}
				expected++
				// Truncate the top layer halfway (FGS cut).
				if layer == 2 && expected%2 == 0 {
					continue
				}
				rcv.OnPacket(p)
			}
		}
		net.Step()
		rcv.Tick(net.Tick())
	}
	rep := rcv.Report()
	if rep.MeanQuality < 2.3 || rep.MeanQuality > 2.7 {
		t.Fatalf("half-truncated top layer quality = %v, want ~2.5", rep.MeanQuality)
	}
}

// TestReceiverScoresInFrameOrder: when many frames of different quality
// fall due in one tick, the report is computed over played frames in
// frame order, so it is bit-identical to a frame-order reference. Four
// seeds, so a scan in any other order cannot match them all by chance.
func TestReceiverScoresInFrameOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		net := newNet()
		src := NewSource(net, Config{}, rand.New(rand.NewSource(seed)))
		rcv := NewReceiver(src)
		drop := rand.New(rand.NewSource(seed + 100))
		got := map[uint64][]int{}
		for tick := int64(0); tick < 1000; tick++ {
			src.Tick()
			for layer, st := range src.Streams() {
				for p := st.Pop(); p != nil; p = st.Pop() {
					// The base layer always arrives; enhancement packets are
					// cut at random, so frames differ in quality.
					if layer > 0 && drop.Float64() < 0.3 {
						continue
					}
					if got[p.Frame] == nil {
						got[p.Frame] = make([]int, src.Layers())
					}
					got[p.Frame][layer]++
					rcv.OnPacket(p)
				}
			}
			net.Step()
		}
		rcv.Tick(net.Tick() + src.DeadlineTicks()) // every frame falls due at once

		var want []float64
		for frame := uint64(1); frame <= src.Frames(); frame++ {
			q := 0.0
			for layer, n := range src.ExpectedPackets(frame) {
				if n > 0 {
					q += min(float64(got[frame][layer])/float64(n), 1)
				}
			}
			want = append(want, q)
		}
		ref := stats.Summarize(want)
		rep := rcv.Report()
		if rep.FramesPlayed != uint64(len(want)) || rep.BaseMissRate != 0 || ref.StdDev == 0 {
			t.Fatalf("seed %d: played %d of %d frames of σ %v: %v", seed, rep.FramesPlayed, len(want), ref.StdDev, rep)
		}
		if rep.MeanQuality != ref.Mean || rep.QualityStdDev != ref.StdDev {
			t.Errorf("seed %d: report quality %v±%v, frame-order reference %v±%v",
				seed, rep.MeanQuality, rep.QualityStdDev, ref.Mean, ref.StdDev)
		}
	}
}
