// Quickstart: give one critical stream a 99 % bandwidth guarantee across a
// two-path overlay with noisy cross traffic, while a bulk stream soaks up
// the rest — the core IQ-Paths workflow in ~80 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"iqpaths"
)

func main() {
	// 1. A testbed: the paper's Fig. 8 topology — two 100 Mbps overlay
	// paths whose bottlenecks carry synthetic NLANR-like cross traffic.
	tb := iqpaths.BuildTestbed(iqpaths.TestbedConfig{Seed: 7})
	net := tb.Net

	// 2. Streams and their utility specs.
	control := iqpaths.NewStream(0, iqpaths.StreamSpec{
		Name:         "control",
		Kind:         iqpaths.Probabilistic,
		RequiredMbps: 8,
		Probability:  0.99,
	})
	bulk := iqpaths.NewStream(1, iqpaths.StreamSpec{Name: "bulk"})
	streams := []*iqpaths.Stream{control, bulk}

	// Arrivals: the control stream sends 25 frames/s; bulk is backlogged.
	ctlSrc := iqpaths.NewFrameSource(net, control, 25, 8e6/8/25)
	bulkSrc := iqpaths.NewBacklogSource(net, bulk, 2000)

	// 3. Monitors: per-path bandwidth distributions (500 samples @ 0.1 s).
	monA := iqpaths.NewPathMonitor("PathA", 500, 100)
	monB := iqpaths.NewPathMonitor("PathB", 500, 100)
	sampA := iqpaths.NewSampler(tb.PathA, monA)
	sampB := iqpaths.NewSampler(tb.PathB, monB)

	// 4. The PGOS scheduler, built by registry name — swap the arm string
	// (iqpaths.RegisteredSchedulers() lists them) to compare baselines.
	scheduler, err := iqpaths.BuildScheduler(iqpaths.ArmPGOS, iqpaths.SchedulerConfig{
		Streams:     streams,
		Paths:       []iqpaths.PathService{tb.PathA, tb.PathB},
		Monitors:    []*iqpaths.PathMonitor{monA, monB},
		TwSec:       1.0,
		TickSeconds: net.TickSeconds(),
		OnReject: func(s *iqpaths.Stream) {
			log.Printf("admission control rejected %s — lower its requirement", s.Name)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	pgos := scheduler.(*iqpaths.PGOS)

	// 5. Run 120 virtual seconds; measure delivered throughput per second.
	const tick = 0.01
	perSecond := map[int][]float64{}
	acc := map[int]float64{}
	for t := int64(0); t < int64(120/tick); t++ {
		ctlSrc.Tick()
		bulkSrc.Tick()
		pgos.Tick(t)
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
			for id, bits := range acc {
				perSecond[id] = append(perSecond[id], bits/1e6)
				acc[id] = 0
			}
		}
	}

	// 6. Report: the guarantee math is available directly, too.
	fmt.Println("PGOS over two noisy paths, 120 s:")
	for _, s := range streams {
		sum := iqpaths.Summarize(perSecond[s.ID][20:]) // skip warm-up
		fmt.Printf("  %-8s mean %6.2f Mbps  σ %5.2f  sustained 95%%-of-time %6.2f",
			s.Name, sum.Mean, sum.StdDev, sum.SustainedAt(0.95))
		if s.RequiredMbps > 0 {
			fmt.Printf("  (target %.2f @ %.0f%%)", s.RequiredMbps, s.Probability*100)
		}
		fmt.Println()
	}
	fmt.Printf("  PathA can still promise %.1f Mbps at 99%% on top of current commitments\n",
		iqpaths.FeasibleRate(monA.CDF(), 0.99, pgos.Mapping().Committed[0]))
}
