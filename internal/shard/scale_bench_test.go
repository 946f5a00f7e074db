package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// BenchmarkPlaneScale sweeps the sharded data plane over streams ×
// shards, measuring one full barrier tick: per-shard command drain, CBR
// injection, PGOS dispatch, network step, and delivery drain on every
// shard. Each shard owns a private simnet (two paths), packet arena, and
// monitor set; streams spread by hash placement.
//
// The per-op figure is wall-clock per plane tick, so with GOMAXPROCS ≥
// shards the shards' work overlaps and the curve measures scaling; with
// GOMAXPROCS=1 (CI smoke boxes) the same sweep degenerates to the serial
// sum plus barrier overhead — the benchmark name carries the
// -GOMAXPROCS suffix so curves are never compared across core counts.
//
// Workload constants mirror the unsharded BenchmarkScale in
// internal/pgos so the shards=1 column is directly comparable: 0.25 Mbps
// guaranteed streams at 95 %, one in five best-effort at 0.1 Mbps, links
// provisioned at 2× aggregate demand.

const (
	pbTickSec = 0.01
	pbTwSec   = 1.0
	pbBits    = 12000.0
	pbGRate   = 0.25
	pbBERate  = 0.1
	pbPaths   = 2 // paths per shard
)

type planeBench struct {
	plane      *shard.Plane
	nets       []*simnet.Network
	paths      [][]*simnet.Path
	mons       [][]*monitor.PathMonitor
	noise      []*rand.Rand
	debt       [][]float64
	caps       []float64
	rates      []float64 // by global stream ID
	windowTick int64
	tick       int64
}

func newPlaneBench(b *testing.B, nStreams, nShards int) *planeBench {
	pb := &planeBench{windowTick: int64(pbTwSec / pbTickSec)}

	pb.rates = make([]float64, nStreams)
	totalMbps := 0.0
	for i := range pb.rates {
		if i%5 == 4 {
			pb.rates[i] = pbBERate
		} else {
			pb.rates[i] = pbGRate
		}
		totalMbps += pb.rates[i]
	}
	// Hash placement spreads streams near-uniformly; provision each
	// shard's links at 2× its expected share.
	shareMbps := totalMbps / float64(nShards)
	capMbps := shareMbps*2/pbPaths + 10
	capPktsPerTick := capMbps * pbTickSec * 1e6 / pbBits
	paceLimit := int(2 * capPktsPerTick)
	if paceLimit < 170 {
		paceLimit = 170
	}

	var domains []shard.Domain
	for k := 0; k < nShards; k++ {
		net := simnet.New(pbTickSec, rand.New(rand.NewSource(int64(k+1))))
		arena := &simnet.Arena{}
		net.SetArena(arena)
		var paths []*simnet.Path
		var svcs []sched.PathService
		var mons []*monitor.PathMonitor
		noise := rand.New(rand.NewSource(int64(1000 + k)))
		for j := 0; j < pbPaths; j++ {
			l := net.AddLink(simnet.LinkConfig{
				Name:         fmt.Sprintf("s%dl%d", k, j),
				CapacityMbps: capMbps,
				DelayTicks:   1,
				QueueLimit:   2*paceLimit + 100,
			})
			p := net.AddPath(fmt.Sprintf("s%dp%d", k, j), l)
			paths = append(paths, p)
			svcs = append(svcs, p)
			m := monitor.New(p.Name(), 500, 100)
			for s := 0; s < 500; s++ {
				m.ObserveBandwidth(capMbps * (1 + 0.03*noise.NormFloat64()))
			}
			mons = append(mons, m)
		}
		pb.nets = append(pb.nets, net)
		pb.paths = append(pb.paths, paths)
		pb.mons = append(pb.mons, mons)
		pb.noise = append(pb.noise, noise)
		pb.caps = append(pb.caps, capMbps)
		pb.debt = append(pb.debt, nil)
		domains = append(domains, shard.Domain{
			Paths: svcs,
			Mons:  mons,
			Arena: arena,
			Step: func(int64) {
				net.Step()
				for _, p := range paths {
					p.DrainDelivered(nil)
				}
			},
		})
	}

	pb.plane = shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       pbTwSec,
			TickSeconds: pbTickSec,
			PaceLimit:   paceLimit,
		},
		OnShardTick: pb.onShardTick,
	}, domains)
	b.Cleanup(pb.plane.Stop)

	for i := 0; i < nStreams; i++ {
		if i%5 == 4 {
			pb.plane.AddStream(stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort})
		} else {
			pb.plane.AddStream(stream.Spec{
				Name:         fmt.Sprintf("g%d", i),
				Kind:         stream.Probabilistic,
				RequiredMbps: pbGRate,
				Probability:  0.95,
			})
		}
	}

	// Steady state: two scheduling windows past the first mapping.
	for t := 0; t < int(2*pb.windowTick); t++ {
		pb.tickOnce()
	}
	return pb
}

// onShardTick runs on the shard goroutine: monitor samples every 10
// ticks and per-stream CBR injection, all against shard-local state.
func (pb *planeBench) onShardTick(sh *shard.Shard, now int64) {
	k := sh.ID()
	if now%10 == 0 {
		for _, m := range pb.mons[k] {
			m.ObserveBandwidth(pb.caps[k] * (1 + 0.03*pb.noise[k].NormFloat64()))
		}
	}
	n := sh.NumStreams()
	debt := pb.debt[k]
	for len(debt) < n {
		debt = append(debt, 0)
	}
	pb.debt[k] = debt
	for i := 0; i < n; i++ {
		g := sh.GlobalID(i)
		debt[i] += pb.rates[g] * 1e6 * pbTickSec / pbBits
		for debt[i] >= 1 {
			debt[i]--
			p := pb.nets[k].NewPacket(g, pbBits)
			p.Deadline = now + pb.windowTick
			if !sh.Stream(i).Push(p) {
				simnet.ReleasePacket(p)
			}
		}
	}
}

func (pb *planeBench) tickOnce() {
	pb.plane.Tick(pb.tick)
	pb.tick++
}

func BenchmarkPlaneScale(b *testing.B) {
	type cfg struct{ streams, shards int }
	var cfgs []cfg
	for _, nStreams := range []int{1000, 10000, 100000} {
		for _, nShards := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs, cfg{nStreams, nShards})
		}
	}
	for _, c := range cfgs {
		b.Run(fmt.Sprintf("streams=%d/shards=%d", c.streams, c.shards), func(b *testing.B) {
			pb := newPlaneBench(b, c.streams, c.shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.tickOnce()
			}
		})
	}
}
