package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

const (
	dTickSec = 0.01
	dTwSec   = 0.5
	dBits    = 12000.0
)

// diffSpecs builds the standard differential workload: four guaranteed
// streams then one best-effort, repeating.
func diffSpecs(n int) (specs []stream.Spec, rates []float64, totalMbps float64) {
	specs = make([]stream.Spec, n)
	rates = make([]float64, n)
	for i := range specs {
		if i%5 == 4 {
			specs[i] = stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort}
			rates[i] = 0.1
		} else {
			specs[i] = stream.Spec{
				Name:         fmt.Sprintf("g%d", i),
				Kind:         stream.Probabilistic,
				RequiredMbps: 0.25,
				Probability:  0.95,
			}
			rates[i] = 0.25
		}
		totalMbps += rates[i]
	}
	return specs, rates, totalMbps
}

// diffWorld is the substrate both runs share: one simnet, nPaths links,
// warm monitors, a CBR injector, and a delivery trace. Everything
// consuming randomness derives from the given seed, so two worlds built
// from the same seed are bit-for-bit interchangeable.
type diffWorld struct {
	net        *simnet.Network
	paths      []*simnet.Path
	svcs       []sched.PathService
	mons       []*monitor.PathMonitor
	rates      []float64
	debt       []float64
	noise      *rand.Rand
	capMbps    float64
	paceLimit  int
	windowTick int64
	trace      strings.Builder
}

func newDiffWorld(seed int64, n, nPaths int) (*diffWorld, []stream.Spec) {
	specs, rates, totalMbps := diffSpecs(n)
	capMbps := totalMbps*2/float64(nPaths) + 10
	capPktsPerTick := capMbps * dTickSec * 1e6 / dBits
	paceLimit := int(2 * capPktsPerTick)
	if paceLimit < 170 {
		paceLimit = 170
	}
	w := &diffWorld{
		net:        simnet.New(dTickSec, rand.New(rand.NewSource(seed))),
		rates:      rates,
		debt:       make([]float64, n),
		noise:      rand.New(rand.NewSource(seed*1000 + 7)),
		capMbps:    capMbps,
		paceLimit:  paceLimit,
		windowTick: int64(dTwSec / dTickSec),
	}
	for j := 0; j < nPaths; j++ {
		l := w.net.AddLink(simnet.LinkConfig{
			Name:         fmt.Sprintf("l%d", j),
			CapacityMbps: capMbps,
			DelayTicks:   1,
			QueueLimit:   2*paceLimit + 100,
		})
		p := w.net.AddPath(fmt.Sprintf("p%d", j), l)
		w.paths = append(w.paths, p)
		w.svcs = append(w.svcs, p)
		w.mons = append(w.mons, monitor.New(fmt.Sprintf("p%d", j), 500, 100))
	}
	for k := 0; k < 200; k++ {
		w.sample()
	}
	return w, specs
}

func (w *diffWorld) sample() {
	for _, m := range w.mons {
		m.ObserveBandwidth(w.capMbps * (1 + 0.03*w.noise.NormFloat64()))
	}
}

// inject pushes this tick's CBR arrivals for stream index i into st.
func (w *diffWorld) inject(i int, st *stream.Stream, now int64) {
	w.debt[i] += w.rates[i] * 1e6 * dTickSec / dBits
	for w.debt[i] >= 1 {
		w.debt[i]--
		p := w.net.NewPacket(i, dBits)
		p.Deadline = now + w.windowTick
		if !st.Push(p) {
			simnet.ReleasePacket(p)
		}
	}
}

// drain steps the network and appends every delivery to the trace.
func (w *diffWorld) drain(now int64) {
	w.net.Step()
	for j, p := range w.paths {
		p.DrainDelivered(func(pkt *simnet.Packet) {
			fmt.Fprintf(&w.trace, "%d/%d/%d/%d\n", now, j, pkt.Stream, pkt.ID)
		})
	}
}

// runUnsharded drives a bare PGOS scheduler for the given tick count and
// returns its delivery trace and final counters — the reference.
func runUnsharded(seed int64, n, nPaths, ticks int) (string, pgos.Stats) {
	w, specs := newDiffWorld(seed, n, nPaths)
	streams := make([]*stream.Stream, n)
	for i, sp := range specs {
		streams[i] = stream.New(i, sp)
	}
	s := pgos.New(pgos.Config{
		TwSec:       dTwSec,
		TickSeconds: dTickSec,
		PaceLimit:   w.paceLimit,
	}, streams, w.svcs, w.mons)
	for t := int64(0); t < int64(ticks); t++ {
		if t%10 == 0 {
			w.sample()
		}
		for i, st := range streams {
			w.inject(i, st, t)
		}
		s.Tick(t)
		w.drain(t)
	}
	return w.trace.String(), s.Stats()
}

// runSingleShardPlane drives the identical workload through a one-shard
// Plane and returns its trace and aggregated counters.
func runSingleShardPlane(seed int64, n, nPaths, ticks int) (string, pgos.Stats) {
	w, specs := newDiffWorld(seed, n, nPaths)
	plane := shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       dTwSec,
			TickSeconds: dTickSec,
			PaceLimit:   w.paceLimit,
		},
		OnShardTick: func(sh *shard.Shard, now int64) {
			if now%10 == 0 {
				w.sample()
			}
			for i := 0; i < sh.NumStreams(); i++ {
				w.inject(sh.GlobalID(i), sh.Stream(i), now)
			}
		},
	}, []shard.Domain{{
		Paths: w.svcs,
		Mons:  w.mons,
		Step:  w.drain,
	}})
	defer plane.Stop()
	for _, sp := range specs {
		plane.AddStream(sp)
	}
	for t := int64(0); t < int64(ticks); t++ {
		plane.Tick(t)
	}
	return w.trace.String(), plane.Stats()
}

// TestSingleShardMatchesUnsharded is the sharding determinism contract:
// a one-shard plane must replay byte-identical to the unsharded
// scheduler — same deliveries on the same ticks in the same order, same
// counters — across seeds. This is what makes sharded mode a strict
// superset rather than a behavioral fork.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	const n, nPaths, ticks = 30, 2, 170
	for _, seed := range []int64{1, 7, 42} {
		refTrace, refStats := runUnsharded(seed, n, nPaths, ticks)
		gotTrace, gotStats := runSingleShardPlane(seed, n, nPaths, ticks)
		if gotTrace != refTrace {
			t.Fatalf("seed %d: delivery traces diverge\n%s", seed, firstDiff(refTrace, gotTrace))
		}
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Fatalf("seed %d: stats diverge:\nunsharded: %+v\nplane:     %+v", seed, refStats, gotStats)
		}
		if refTrace == "" {
			t.Fatalf("seed %d: empty trace — workload never delivered anything", seed)
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: unsharded %q vs plane %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// newTwoShardPlane builds a two-shard plane, streams placed least-loaded
// (so they alternate 0, 1, 0, ...), each shard with a private simnet and
// path; deliveries are drained and released.
func newTwoShardPlane(t *testing.T, reg *telemetry.Registry) *shard.Plane {
	t.Helper()
	var domains []shard.Domain
	for k := 0; k < 2; k++ {
		net := simnet.New(dTickSec, rand.New(rand.NewSource(int64(k+1))))
		l := net.AddLink(simnet.LinkConfig{
			Name:         fmt.Sprintf("s%dl0", k),
			CapacityMbps: 10,
			DelayTicks:   1,
			QueueLimit:   500,
		})
		p := net.AddPath(fmt.Sprintf("s%dp0", k), l)
		mon := monitor.New(p.Name(), 100, 10)
		for i := 0; i < 100; i++ {
			mon.ObserveBandwidth(10)
		}
		domains = append(domains, shard.Domain{
			Paths: []sched.PathService{p},
			Mons:  []*monitor.PathMonitor{mon},
			Step: func(int64) {
				net.Step()
				p.DrainDelivered(nil)
			},
		})
	}
	plane := shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       dTwSec,
			TickSeconds: dTickSec,
			PaceLimit:   170,
		},
		Placement: shard.LeastLoaded{},
		Telemetry: reg,
	}, domains)
	t.Cleanup(plane.Stop)
	return plane
}

// TestDirectoryOwnership checks the dense stream directories: each stream
// is owned through Owns, LocalIndex and Plane.Owner by its placed shard
// only, negative and never-issued IDs are owned by none, and each
// shard's iqpaths_shard_streams gauge counts its streams.
func TestDirectoryOwnership(t *testing.T) {
	reg := telemetry.NewRegistry()
	plane := newTwoShardPlane(t, reg)
	gauge := func(k int) float64 {
		return reg.WithLabels("shard", fmt.Sprint(k)).Gauge("iqpaths_shard_streams", "").Value()
	}
	// check asserts where every stream lives: owners[g] is g's shard.
	check := func(owners []int) {
		t.Helper()
		if n := plane.NumStreams(); n != len(owners) {
			t.Fatalf("plane NumStreams = %d, want %d", n, len(owners))
		}
		owned := [2]int{}
		for g, want := range owners {
			if k, ok := plane.Owner(g); !ok || k != want {
				t.Fatalf("Owner(%d) = %d,%v, want %d,true", g, k, ok, want)
			}
			owned[want]++
			for k := 0; k < 2; k++ {
				sh := plane.Shard(k)
				li, ok := sh.LocalIndex(g)
				if ok != (k == want) || sh.Owns(g) != ok {
					t.Fatalf("shard %d: LocalIndex(%d) ok=%v Owns=%v, want %v", k, g, ok, sh.Owns(g), k == want)
				}
				if ok && sh.GlobalID(li) != g {
					t.Fatalf("shard %d: local %d maps back to global %d, want %d", k, li, sh.GlobalID(li), g)
				}
			}
		}
		for k := 0; k < 2; k++ {
			if n := plane.Shard(k).NumStreams(); n != owned[k] {
				t.Fatalf("shard %d NumStreams = %d, want %d", k, n, owned[k])
			}
			if got := gauge(k); got != float64(owned[k]) {
				t.Fatalf("shard %d iqpaths_shard_streams = %v, want %d", k, got, owned[k])
			}
		}
		for _, g := range []int{-1, -1 << 40, len(owners), 1 << 20} {
			if k, ok := plane.Owner(g); ok {
				t.Fatalf("Owner(%d) = %d, want not owned", g, k)
			}
			for k := 0; k < 2; k++ {
				if _, ok := plane.Shard(k).LocalIndex(g); ok || plane.Shard(k).Owns(g) {
					t.Fatalf("shard %d owns never-issued stream %d", k, g)
				}
			}
		}
	}
	for i := 0; i < 3; i++ {
		plane.AddStream(stream.Spec{Name: "s", Kind: stream.BestEffort})
	}
	plane.Tick(0)
	check([]int{0, 1, 0})
	plane.AddStream(stream.Spec{Name: "s", Kind: stream.BestEffort})
	plane.Tick(1)
	check([]int{0, 1, 0, 1})
}

// TestStatsAggregatesByGlobalID checks that Plane.Stats re-indexes
// per-shard counters under global stream IDs: both streams sit at local
// index 0 of their shards, with different send counts.
func TestStatsAggregatesByGlobalID(t *testing.T) {
	plane := newTwoShardPlane(t, nil)
	g0, k0 := plane.AddStream(stream.Spec{Name: "a", Kind: stream.BestEffort, QueueLimit: 100})
	g1, k1 := plane.AddStream(stream.Spec{Name: "b", Kind: stream.BestEffort, QueueLimit: 100})
	if k0 == k1 {
		t.Fatalf("both streams placed on shard %d", k0)
	}
	plane.Tick(0)
	offer := func(g int) {
		p := simnet.AcquirePacket()
		p.Stream, p.Bits = g, dBits
		plane.Offer(g, p)
	}
	for i := 0; i < 10; i++ {
		offer(g0)
		if i < 7 {
			offer(g1)
		}
	}
	for now := int64(1); now < 40; now++ {
		plane.Tick(now)
	}
	st := plane.Stats()
	if len(st.PerStream) != 2 {
		t.Fatalf("PerStream len = %d, want 2", len(st.PerStream))
	}
	sent0 := st.PerStream[g0].Scheduled + st.PerStream[g0].OtherPath + st.PerStream[g0].Unscheduled
	sent1 := st.PerStream[g1].Scheduled + st.PerStream[g1].OtherPath + st.PerStream[g1].Unscheduled
	if sent0 != 10 || sent1 != 7 {
		t.Fatalf("per-global-stream sends = %d,%d, want 10,7", sent0, sent1)
	}
	total := st.ScheduledSent + st.OtherPathSent + st.UnscheduledSent
	if total != 17 {
		t.Fatalf("aggregate sends = %d, want 17", total)
	}
}
