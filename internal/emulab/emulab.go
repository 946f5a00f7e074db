// Package emulab builds the paper's Figure 8 testbed inside the simnet
// emulator: server N-1 reaches client N-6 over two overlay paths through
// router nodes N-4 and N-5, and NLANR-style cross traffic (injected by
// nodes N-9…N-14 in the paper) shares the bottleneck links N-3→N-5 and
// N-2→N-4 with the overlay. All links are 100 Mbps fast ethernet, the
// Emulab limit the paper notes.
package emulab

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/simnet"
	"iqpaths/internal/trace"
)

// Config parameterizes the testbed build.
type Config struct {
	// Seed drives all synthesized randomness. The cross traffic of path
	// A's bottleneck (N-3→N-5) is an NLANR-like trace with the default
	// calibration, and path B's (N-2→N-4) a heavier, more variable one,
	// reproducing the paper's setup where path A has higher available
	// bandwidth and path B a larger variance.
	Seed int64
}

// TickSeconds is the testbed's emulator tick; scripts played against a
// testbed (faults, membership churn) are scheduled in these ticks.
const TickSeconds = 0.01

// The testbed's links: 100 Mbps fast ethernet, one tick of propagation
// delay and a 1000-packet queue.
const (
	capacityMbps = 100
	delayTicks   = 1
	queueLimit   = 1000
)

// Testbed is the assembled Fig. 8 network.
type Testbed struct {
	Net   *simnet.Network
	PathA *simnet.Path // N-1 → N-3 → N-5 → N-6 (shares N-3:N-5 with cross traffic)
	PathB *simnet.Path // N-1 → N-2 → N-4 → N-6 (shares N-2:N-4 with cross traffic)
}

// HeavyNLANR returns the cross-traffic calibration used for path B: a
// higher, more bursty load than trace.DefaultNLANR, giving path B lower
// mean available bandwidth and larger variance, as in the paper's testbed.
func HeavyNLANR() trace.NLANRConfig {
	cfg := trace.DefaultNLANR()
	cfg.BaseLoad = 48
	cfg.RegimeMin = 36
	cfg.RegimeMax = 60
	cfg.RegimeStep = 6
	cfg.JitterSigma = 14
	cfg.DipRate = 30
	cfg.DipMeanOn = 120
	cfg.DipMeanOff = 3000
	return cfg
}

// MultiPath is an N-branch generalization of the Fig. 8 testbed: the
// server reaches the client over n parallel router chains, each with its
// own cross-traffic process of increasing heaviness (branch 0 matches
// path A, branch 1 path B, further branches grow heavier still).
type MultiPath struct {
	Net   *simnet.Network
	Paths []*simnet.Path
}

// BuildN assembles an n-path testbed (1 ≤ n ≤ 6).
func BuildN(cfg Config, n int) *MultiPath {
	if n < 1 || n > 6 {
		panic("emulab: BuildN supports 1..6 paths")
	}
	net := simnet.New(TickSeconds, rand.New(rand.NewSource(cfg.Seed)))
	mp := &MultiPath{Net: net}
	for i := 0; i < n; i++ {
		var tc trace.NLANRConfig
		switch i {
		case 0:
			tc = trace.DefaultNLANR()
		case 1:
			tc = HeavyNLANR()
		default:
			// Progressively heavier/noisier branches.
			tc = HeavyNLANR()
			tc.BaseLoad += float64(6 * (i - 1))
			tc.RegimeMax += float64(6 * (i - 1))
			tc.JitterSigma += float64(2 * (i - 1))
		}
		cross := trace.NewNLANRLike(tc, rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
		mkLink := func(name string, cr trace.Generator) *simnet.Link {
			return net.AddLink(simnet.LinkConfig{
				Name:         name,
				CapacityMbps: capacityMbps,
				DelayTicks:   delayTicks,
				QueueLimit:   queueLimit,
				Cross:        cr,
			})
		}
		in := mkLink(fmt.Sprintf("N-1:R%d", i), nil)
		mid := mkLink(fmt.Sprintf("R%d:R%d'", i, i), cross)
		out := mkLink(fmt.Sprintf("R%d':N-6", i), nil)
		mp.Paths = append(mp.Paths, net.AddPath(fmt.Sprintf("Path%d", i), in, mid, out))
	}
	return mp
}

// Build assembles the testbed.
func Build(cfg Config) *Testbed {
	rng := rand.New(rand.NewSource(cfg.Seed))
	crossA := trace.NewNLANRLike(trace.DefaultNLANR(), rand.New(rand.NewSource(cfg.Seed+1)))
	crossB := trace.NewNLANRLike(HeavyNLANR(), rand.New(rand.NewSource(cfg.Seed+2)))

	net := simnet.New(TickSeconds, rng)
	mk := func(name string, cross trace.Generator) *simnet.Link {
		return net.AddLink(simnet.LinkConfig{
			Name:         name,
			CapacityMbps: capacityMbps,
			DelayTicks:   delayTicks,
			QueueLimit:   queueLimit,
			Cross:        cross,
		})
	}
	// Path A: N-1 → N-3 → N-5 → N-6, bottleneck N-3:N-5.
	a1 := mk("N-1:N-3", nil)
	a2 := mk("N-3:N-5", crossA)
	a3 := mk("N-5:N-6", nil)
	// Path B: N-1 → N-2 → N-4 → N-6, bottleneck N-2:N-4.
	b1 := mk("N-1:N-2", nil)
	b2 := mk("N-2:N-4", crossB)
	b3 := mk("N-4:N-6", nil)

	return &Testbed{
		Net:   net,
		PathA: net.AddPath("PathA", a1, a2, a3),
		PathB: net.AddPath("PathB", b1, b2, b3),
	}
}
