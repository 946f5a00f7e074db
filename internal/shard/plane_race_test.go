package shard_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// TestConcurrentPlaneConservesPackets is the sharding stress test (run it
// under -race: `go test -race ./internal/shard/`): four shards tick
// through a barrier loop while three control-plane goroutines
// concurrently add streams, offer packets to streams they learn of only
// through Plane.Owner, and feed monitor samples. At the end every stream
// is owned by exactly one shard and the directory agrees; every offered
// packet was delivered or counted as a backlog drop, no offer was lost;
// and once every backlog has drained, every arena has settled to zero.
func TestConcurrentPlaneConservesPackets(t *testing.T) {
	const (
		nShards  = 4
		nInitial = 16
		nAdded   = 32
		ticks    = 400
	)

	reg := telemetry.NewRegistry()
	arenas := make([]*simnet.Arena, nShards)
	delivered := make([]int, nShards) // written only inside shard k's tick
	var domains []shard.Domain
	for k := 0; k < nShards; k++ {
		net := simnet.New(dTickSec, rand.New(rand.NewSource(int64(k+1))))
		// The link serves more per tick than PaceLimit lets PGOS send, so
		// its queue never overflows: a packet leaves the plane delivered or
		// not at all.
		l := net.AddLink(simnet.LinkConfig{
			Name:         fmt.Sprintf("s%dl0", k),
			CapacityMbps: 500,
			DelayTicks:   1,
			QueueLimit:   500,
		})
		p := net.AddPath(fmt.Sprintf("s%dp0", k), l)
		mon := monitor.New(p.Name(), 100, 10)
		for i := 0; i < 100; i++ {
			mon.ObserveBandwidth(500)
		}
		arenas[k] = &simnet.Arena{}
		domains = append(domains, shard.Domain{
			Paths: []sched.PathService{p},
			Mons:  []*monitor.PathMonitor{mon},
			Arena: arenas[k],
			Step: func(int64) {
				net.Step()
				p.DrainDelivered(func(*simnet.Packet) { delivered[k]++ })
			},
		})
	}

	plane := shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       dTwSec,
			TickSeconds: dTickSec,
			PaceLimit:   170,
		},
		Placement: shard.HashPlacement{},
		Telemetry: reg,
	}, domains)
	defer plane.Stop()

	spec := stream.Spec{Kind: stream.BestEffort, QueueLimit: 200}
	for i := 0; i < nInitial; i++ {
		plane.AddStream(spec)
	}

	// The stressors do a bounded number of operations and yield between
	// them — an unthrottled producer on a small box can enqueue commands
	// faster than the barrier loop drains them and starve the test.
	var wg sync.WaitGroup
	var offers atomic.Int64

	wg.Add(3)
	go func() { // streams join while the plane ticks
		defer wg.Done()
		for i := 0; i < nAdded; i++ {
			plane.AddStream(spec)
			for j := 0; j < 50; j++ {
				runtime.Gosched()
			}
		}
	}()
	go func() { // offers, half of them to the newest stream the directory shows
		defer wg.Done()
		rng := rand.New(rand.NewSource(202))
		known := 0
		for i := 0; i < 3000; i++ {
			for {
				if _, ok := plane.Owner(known); !ok {
					break
				}
				known++
			}
			g := known - 1
			if i%2 == 0 {
				g = rng.Intn(known)
			}
			// Any shard's arena: a packet released on another shard
			// must still credit the arena it came from.
			pkt := arenas[rng.Intn(nShards)].Acquire()
			pkt.Stream = g
			pkt.Bits = dBits
			plane.Offer(g, pkt)
			offers.Add(1)
			runtime.Gosched()
		}
	}()
	go func() { // monitor feeds
		defer wg.Done()
		rng := rand.New(rand.NewSource(303))
		for i := 0; i < 3000; i++ {
			plane.ObserveBandwidth(rng.Intn(nShards), 0, 500*(1+0.05*rng.NormFloat64()))
			runtime.Gosched()
		}
	}()

	// Tick for as long as any stressor runs, and at least ticks times.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	now := int64(0)
	for running := true; running || now < ticks; now++ {
		select {
		case <-done:
			running = false
		default:
		}
		plane.Tick(now)
	}

	// Quiesce: tick until every offer is accounted for, which also
	// empties every backlog and every link queue.
	accounted := func() (n int) {
		for k := 0; k < nShards; k++ {
			n += delivered[k]
			n += int(reg.WithLabels("shard", fmt.Sprint(k)).Counter("iqpaths_shard_offer_drops_total", "").Value())
		}
		return n
	}
	offered := int(offers.Load())
	for limit := now + 1000; now < limit && accounted() < offered; now++ {
		plane.Tick(now)
	}

	if got := accounted(); got != offered {
		t.Fatalf("offered %d packets, delivered or dropped %d after %d ticks", offered, got, now)
	}
	if lost := reg.Counter("iqpaths_plane_lost_offers_total", "").Value(); lost != 0 {
		t.Fatalf("iqpaths_plane_lost_offers_total = %d, want 0", lost)
	}
	for k := 0; k < nShards; k++ {
		sh := plane.Shard(k)
		for i := 0; i < sh.NumStreams(); i++ {
			if n := sh.Stream(i).Len(); n != 0 {
				t.Fatalf("shard %d stream %d still holds %d packets", k, sh.GlobalID(i), n)
			}
		}
		if out := arenas[k].Outstanding(); out != 0 {
			t.Fatalf("arena %d outstanding = %d after full drain, want 0", k, out)
		}
	}

	const nStreams = nInitial + nAdded
	if n := plane.NumStreams(); n != nStreams {
		t.Fatalf("plane lost streams: NumStreams = %d, want %d", n, nStreams)
	}
	for g := 0; g < nStreams; g++ {
		owner, ok := plane.Owner(g)
		if !ok {
			t.Fatalf("stream %d vanished from the directory", g)
		}
		owners := 0
		for k := 0; k < nShards; k++ {
			if plane.Shard(k).Owns(g) {
				owners++
				if k != owner {
					t.Fatalf("stream %d: directory says shard %d, shard %d owns it", g, owner, k)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("stream %d owned by %d shards, want exactly 1", g, owners)
		}
	}
}
