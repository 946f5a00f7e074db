// Command iqtrace generates, inspects, and converts the synthetic
// NLANR-like cross-traffic traces the experiments run on.
//
//	iqtrace -gen cross.iqtr -samples 60000 -seed 42        # generate
//	iqtrace -gen cross.iqtr -heavy                         # path-B calibration
//	iqtrace -info cross.iqtr                               # summary stats
//	iqtrace -info cross.iqtr -capacity 100                 # as available bw
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"iqpaths/internal/emulab"
	"iqpaths/internal/stats"
	"iqpaths/internal/trace"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate a trace file at this path")
		info     = flag.String("info", "", "print summary statistics of a trace file")
		samples  = flag.Int("samples", 60000, "samples to generate (0.1 s each)")
		seed     = flag.Int64("seed", 42, "generator seed")
		heavy    = flag.Bool("heavy", false, "use the heavier path-B calibration")
		tick     = flag.Float64("tick", 0.1, "seconds per sample")
		capacity = flag.Float64("capacity", 0, "with -info: report capacity−trace (available bandwidth)")
	)
	flag.Parse()
	switch {
	case *gen != "":
		if err := generate(*gen, *samples, *seed, *heavy, *tick); err != nil {
			log.Fatal(err)
		}
	case *info != "":
		if err := inspect(*info, *capacity); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(path string, samples int, seed int64, heavy bool, tick float64) error {
	cfg := trace.DefaultNLANR()
	if heavy {
		cfg = emulab.HeavyNLANR()
	}
	g := trace.NewNLANRLike(cfg, rand.New(rand.NewSource(seed)))
	f := &trace.File{TickSeconds: tick, Samples: trace.Take(g, samples)}
	if err := f.Save(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples, %.1f minutes at %.1fs/sample\n",
		path, samples, float64(samples)*tick/60, tick)
	return nil
}

func inspect(path string, capacity float64) error {
	f, err := trace.Load(path)
	if err != nil {
		return err
	}
	series := f.Samples
	label := "cross traffic"
	if capacity > 0 {
		series = trace.AvailableBandwidth(capacity, series)
		label = fmt.Sprintf("available bandwidth (capacity %.0f)", capacity)
	}
	s := stats.Summarize(series)
	fmt.Printf("%s: %d samples at %.2fs (%.1f min)\n", path, len(series), f.TickSeconds,
		float64(len(series))*f.TickSeconds/60)
	fmt.Printf("%s (Mbps):\n", label)
	fmt.Printf("  mean %.2f  stddev %.2f  min %.2f  max %.2f\n", s.Mean, s.StdDev, s.Min, s.Max)
	fmt.Printf("  p01 %.2f  p05 %.2f  p10 %.2f  p50 %.2f  p90 %.2f  p99 %.2f\n",
		s.SustainedAt(0.99), s.SustainedAt(0.95), s.SustainedAt(0.90),
		s.Median, s.SustainedAt(0.10), s.SustainedAt(0.01))
	return nil
}
