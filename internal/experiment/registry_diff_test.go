package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"

	"iqpaths/internal/emulab"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// diffSchedBuilder constructs one arm either directly (the pre-registry
// construction path) or through sched.Build; the differential test pins
// the two byte-identical.
type diffSchedBuilder func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error)

// directBuilders reproduces the hand-rolled construction each runner used
// before the registry, one per registered arm.
var directBuilders = map[string]diffSchedBuilder{
	sched.NameWFQ: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewWFQ(streams, cfg.Paths[0], cfg.PaceLimit), nil
	},
	sched.NameMSFQ: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewMSFQ(streams, cfg.Paths, cfg.PaceLimit), nil
	},
	sched.NamePGOS: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return pgos.New(pgos.Config{
			TwSec: cfg.TwSec, TickSeconds: cfg.TickSeconds, PaceLimit: cfg.PaceLimit,
		}, streams, cfg.Paths, cfg.Monitors), nil
	},
	sched.NameOptSched: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewOptSched(streams, cfg.Paths, cfg.Avail, cfg.TickSeconds, cfg.PaceLimit), nil
	},
	sched.NameBackpressure: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewBackpressure(streams, cfg.Paths, cfg.PaceLimit), nil
	},
	sched.NameBlocked: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewRoundRobin(streams, cfg.Paths, cfg.PaceLimit), nil
	},
	sched.NameRoundRobin: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewRoundRobin(streams, cfg.Paths, cfg.PaceLimit), nil
	},
	sched.NamePartitioned: func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
		return sched.NewPartitioned(streams, cfg.Paths, cfg.PaceLimit), nil
	},
}

// deliveryTrace runs one fixed workload under the scheduler that build
// produces and hashes every delivery (path, packet ID, stream, created,
// delivered tick) in drain order.
func deliveryTrace(t *testing.T, seed int64, build diffSchedBuilder) uint64 {
	t.Helper()
	tb := emulab.Build(emulab.Config{Seed: seed})
	net := tb.Net
	crit := stream.New(0, stream.Spec{
		Name: "crit", Kind: stream.Probabilistic, RequiredMbps: 20, Probability: 0.95,
	})
	bulk := stream.New(1, stream.Spec{Name: "bulk", Weight: 30})
	streams := []*stream.Stream{crit, bulk}
	critSrc := stream.NewRateSource(net, crit, 22)
	bulkSrc := stream.NewBacklogSource(net, bulk, 1000)

	paths := []*simnet.Path{tb.PathA, tb.PathB}
	mons, samplers := pathMonitors(paths)
	cfg := sched.BuildConfig{
		Streams:     streams,
		Paths:       []sched.PathService{tb.PathA, tb.PathB},
		PaceLimit:   170,
		TickSeconds: net.TickSeconds(),
		TwSec:       1,
		Monitors:    mons,
		Avail:       availOracle(paths),
	}
	scheduler, err := build(streams, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	for tick := int64(0); tick < 2000; tick++ {
		critSrc.Tick()
		bulkSrc.Tick()
		scheduler.Tick(tick)
		net.Step()
		if tick%10 == 0 {
			for _, s := range samplers {
				s.Sample()
			}
		}
		for j, p := range paths {
			for _, pkt := range p.TakeDelivered() {
				fmt.Fprintf(h, "%d:%d:%d:%d:%d\n", j, pkt.ID, pkt.Stream, pkt.Created, pkt.Delivered)
			}
		}
	}
	return h.Sum64()
}

// TestRegistryMatchesDirectConstruction pins, for every registered arm and
// seeds {1, 7, 42}, that a registry-built scheduler produces a delivery
// trace byte-identical to direct construction — the registry adds lookup,
// never behavior.
func TestRegistryMatchesDirectConstruction(t *testing.T) {
	skipIfRace(t)
	t.Parallel()
	for _, name := range sched.Registered() {
		direct, ok := directBuilders[name]
		if !ok {
			t.Errorf("registered arm %s has no direct-construction counterpart in this test; add one", name)
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range goldenSeeds {
				got := deliveryTrace(t, seed, func(streams []*stream.Stream, tb *emulab.Testbed, cfg sched.BuildConfig) (sched.Scheduler, error) {
					return sched.Build(name, cfg)
				})
				want := deliveryTrace(t, seed, direct)
				if got != want {
					t.Errorf("seed %d: registry trace %x != direct trace %x", seed, got, want)
				}
			}
		})
	}
}
