// Layered video example: the paper's third application domain (§1, §6) —
// MPEG-4 fine-grained-scalable video where the base layer must never
// stall, enhancement layer 1 should usually arrive, and enhancement
// layer 2 is opportunistic. Each layer becomes an IQ-Paths stream with a
// different guarantee level; PGOS maps the base layer to the most stable
// path and lets the enhancement layers absorb the network's noise — the
// "exploit knowledge about noise rather than suppressing it" design.
//
//	go run ./examples/videostream
package main

import (
	"fmt"

	"iqpaths"
)

func main() {
	tb := iqpaths.BuildTestbed(iqpaths.TestbedConfig{Seed: 11})
	net := tb.Net

	// A 30 fps FGS stream: 2 Mbps base layer (99 %), 6 Mbps enhancement-1
	// (95 %), 12 Mbps enhancement-2 (best effort).
	base := iqpaths.NewStream(0, iqpaths.StreamSpec{
		Name: "base", Kind: iqpaths.Probabilistic, RequiredMbps: 2, Probability: 0.99,
	})
	enh1 := iqpaths.NewStream(1, iqpaths.StreamSpec{
		Name: "enh1", Kind: iqpaths.Probabilistic, RequiredMbps: 6, Probability: 0.95,
	})
	enh2 := iqpaths.NewStream(2, iqpaths.StreamSpec{Name: "enh2", Weight: 12})
	streams := []*iqpaths.Stream{base, enh1, enh2}

	const fps = 30
	sources := []*iqpaths.FrameSource{
		iqpaths.NewFrameSource(net, base, fps, 2e6/8/fps),
		iqpaths.NewFrameSource(net, enh1, fps, 6e6/8/fps),
		iqpaths.NewFrameSource(net, enh2, fps, 12e6/8/fps),
	}

	monA := iqpaths.NewPathMonitor("PathA", 500, 100)
	monB := iqpaths.NewPathMonitor("PathB", 500, 100)
	sampA := iqpaths.NewSampler(tb.PathA, monA)
	sampB := iqpaths.NewSampler(tb.PathB, monB)

	scheduler := iqpaths.NewPGOS(iqpaths.PGOSConfig{
		TwSec:       0.5, // two scheduling windows per second: snappier video
		TickSeconds: net.TickSeconds(),
	}, streams, []iqpaths.PathService{tb.PathA, tb.PathB},
		[]*iqpaths.PathMonitor{monA, monB})

	const tick = 0.01
	const seconds = 90
	series := map[int][]float64{}
	acc := map[int]float64{}
	for t := int64(0); t < int64(seconds/tick); t++ {
		for _, s := range sources {
			s.Tick()
		}
		scheduler.Tick(t)
		net.Step()
		if t%10 == 0 {
			sampA.Sample()
			sampB.Sample()
		}
		for _, p := range []*iqpaths.Path{tb.PathA, tb.PathB} {
			for _, pkt := range p.TakeDelivered() {
				acc[pkt.Stream] += pkt.Bits
			}
		}
		if (t+1)%100 == 0 {
			for id := range streams {
				series[id] = append(series[id], acc[id]/1e6)
				acc[id] = 0
			}
		}
	}

	fmt.Printf("Layered video over IQ-Paths (%d s, 30 fps FGS):\n", seconds)
	for _, s := range streams {
		sum := iqpaths.Summarize(series[s.ID][20:])
		stall := 0
		for _, v := range series[s.ID][20:] {
			if s.RequiredMbps > 0 && v < s.RequiredMbps*0.95 {
				stall++
			}
		}
		fmt.Printf("  %-5s mean %6.2f Mbps  σ %5.3f", s.Name, sum.Mean, sum.StdDev)
		if s.RequiredMbps > 0 {
			fmt.Printf("  target %5.2f @ %.0f%%  shortfall-seconds %d/%d",
				s.RequiredMbps, s.Probability*100, stall, len(series[s.ID][20:]))
		}
		fmt.Println()
	}
	fmt.Println("\nThe base layer rides the stable path; playback smoothness comes from")
	fmt.Println("its guarantee, while enhancement layers flex with available bandwidth.")
}
