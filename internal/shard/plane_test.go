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

// pinned places every stream on one fixed shard.
type pinned int

func (pinned) Name() string                        { return "pinned" }
func (p pinned) Place(int, stream.Spec, []int) int { return int(p) }

// migWorld is a two-shard plane whose shards each own a private simnet,
// arena, and path, plus per-shard delivery accounting.
type migWorld struct {
	plane     *shard.Plane
	nets      []*simnet.Network
	arenas    []*simnet.Arena
	delivered []map[uint64]int // per shard: packet ID -> times seen
	perStream [][]int          // per shard: deliveries per global stream
	reg       *telemetry.Registry
}

// deliveredFor sums stream g's deliveries across shards. Coordinator
// context only (the per-shard counters are written inside ticks).
func (mw *migWorld) deliveredFor(g int) int {
	n := 0
	for _, ps := range mw.perStream {
		n += ps[g]
	}
	return n
}

func newMigWorld(t *testing.T, capMbps float64) *migWorld {
	t.Helper()
	mw := &migWorld{reg: telemetry.NewRegistry()}
	var domains []shard.Domain
	for k := 0; k < 2; k++ {
		net := simnet.New(dTickSec, rand.New(rand.NewSource(int64(k+1))))
		arena := &simnet.Arena{}
		net.SetArena(arena)
		l := net.AddLink(simnet.LinkConfig{
			Name:         fmt.Sprintf("s%dl0", k),
			CapacityMbps: capMbps,
			DelayTicks:   1,
			QueueLimit:   500,
		})
		p := net.AddPath(fmt.Sprintf("s%dp0", k), l)
		mon := monitor.New(p.Name(), 100, 10)
		for i := 0; i < 100; i++ {
			mon.ObserveBandwidth(capMbps)
		}
		seen := make(map[uint64]int)
		perStream := make([]int, 16)
		mw.nets = append(mw.nets, net)
		mw.arenas = append(mw.arenas, arena)
		mw.delivered = append(mw.delivered, seen)
		mw.perStream = append(mw.perStream, perStream)
		domains = append(domains, shard.Domain{
			Paths: []sched.PathService{p},
			Mons:  []*monitor.PathMonitor{mon},
			Arena: arena,
			Step: func(int64) {
				net.Step()
				p.DrainDelivered(func(pkt *simnet.Packet) {
					seen[pkt.ID]++
					perStream[pkt.Stream]++
				})
			},
		})
	}
	mw.plane = shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       dTwSec,
			TickSeconds: dTickSec,
			PaceLimit:   170,
		},
		Placement: pinned(0),
		Telemetry: mw.reg,
	}, domains)
	t.Cleanup(mw.plane.Stop)
	return mw
}

// TestRebindMigratesBacklog rebinds a stream with a deep backlog from
// shard 0 to shard 1 mid-run and checks total conservation: every
// offered packet is delivered exactly once (on either shard's network),
// ownership moves, the source keeps only a neutralized ghost slot, and
// both arenas account to zero once everything drains.
func TestRebindMigratesBacklog(t *testing.T) {
	// ~1 packet per tick so the backlog is still deep when the rebind
	// lands, forcing a real hand-off of queued packets.
	mw := newMigWorld(t, 1.2)
	g, k := mw.plane.AddStream(stream.Spec{Name: "mover", Kind: stream.BestEffort, QueueLimit: 1000})
	if k != 0 {
		t.Fatalf("pinned placement put stream on shard %d, want 0", k)
	}
	mw.plane.Tick(0) // materialize

	const preRebind, postRebind = 60, 5
	for i := 0; i < preRebind; i++ {
		mw.plane.Offer(g, mw.nets[0].NewPacket(g, dBits))
	}
	mw.plane.Tick(1) // backlog lands, dispatch starts

	if err := mw.plane.Rebind(g, 1); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	// Offers submitted after the rebind but before it executes must be
	// rerouted to the new owner, not lost.
	for i := 0; i < postRebind; i++ {
		mw.plane.Offer(g, mw.nets[0].NewPacket(g, dBits))
	}

	total := preRebind + postRebind
	now := int64(2)
	for ; now < 400 && mw.deliveredFor(g) < total; now++ {
		mw.plane.Tick(now)
	}
	if got := mw.deliveredFor(g); got != total {
		t.Fatalf("delivered %d of %d packets after %d ticks", got, total, now)
	}
	for k, seen := range mw.delivered {
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("shard %d delivered packet %d %d times", k, id, c)
			}
		}
	}
	if len(mw.delivered[1]) == 0 {
		t.Fatalf("no packets delivered on the target shard — migration never moved the backlog")
	}

	if owner, ok := mw.plane.Owner(g); !ok || owner != 1 {
		t.Fatalf("Owner(%d) = %d,%v, want 1,true", g, owner, ok)
	}
	if !mw.plane.Shard(1).Owns(g) || mw.plane.Shard(0).Owns(g) {
		t.Fatalf("shard ownership flags wrong: s0=%v s1=%v",
			mw.plane.Shard(0).Owns(g), mw.plane.Shard(1).Owns(g))
	}
	if n := mw.plane.Shard(0).NumStreams(); n != 1 {
		t.Fatalf("source shard slots = %d, want 1 ghost", n)
	}
	if got := mw.plane.Shard(0).Stream(0).Spec.Kind; got != stream.BestEffort {
		t.Fatalf("ghost slot kind = %v, want BestEffort", got)
	}

	// All packets were acquired from shard 0's arena; deliveries on shard
	// 1 released them cross-shard. Origin-routed accounting must settle.
	if out := mw.arenas[0].Outstanding(); out != 0 {
		t.Fatalf("arena 0 outstanding = %d after full drain, want 0", out)
	}
	if out := mw.arenas[1].Outstanding(); out != 0 {
		t.Fatalf("arena 1 outstanding = %d, want 0 (never acquired)", out)
	}
}

func TestRebindErrors(t *testing.T) {
	mw := newMigWorld(t, 10)
	g, _ := mw.plane.AddStream(stream.Spec{Name: "s", Kind: stream.BestEffort})
	mw.plane.Tick(0)

	if err := mw.plane.Rebind(g, 5); err == nil {
		t.Fatal("Rebind to nonexistent shard succeeded")
	}
	if err := mw.plane.Rebind(99, 1); err == nil {
		t.Fatal("Rebind of unknown stream succeeded")
	}
	if err := mw.plane.Rebind(g, 0); err != nil {
		t.Fatalf("no-op Rebind to current owner errored: %v", err)
	}
	if err := mw.plane.Rebind(g, 1); err != nil {
		t.Fatalf("first Rebind: %v", err)
	}
	if err := mw.plane.Rebind(g, 1); err == nil {
		t.Fatal("second Rebind during in-flight migration succeeded, want error")
	}
	mw.plane.Tick(1)
	mw.plane.Tick(2)
	if owner, _ := mw.plane.Owner(g); owner != 1 {
		t.Fatalf("owner after migration = %d, want 1", owner)
	}
	// Completed migration clears the in-flight mark: rebinding back works.
	if err := mw.plane.Rebind(g, 0); err != nil {
		t.Fatalf("rebind back after completion: %v", err)
	}
}

// TestDirectoryOwnership checks the dense stream directories: negative,
// never-issued and migrated-away IDs are not owned through Owns,
// LocalIndex and Plane.Owner, and rebinds keep the plane's NumStreams and
// each shard's iqpaths_shard_streams gauge counting owned streams, not
// the ghost slots migrations leave behind.
func TestDirectoryOwnership(t *testing.T) {
	mw := newMigWorld(t, 10)
	for i := 0; i < 3; i++ {
		mw.plane.AddStream(stream.Spec{Name: "s", Kind: stream.BestEffort})
	}
	mw.plane.Tick(0)
	gauge := func(k int) float64 {
		return mw.reg.WithLabels("shard", fmt.Sprint(k)).Gauge("iqpaths_shard_streams", "").Value()
	}
	// check asserts where every stream lives: owners[g] is g's shard, and
	// slots[k] is shard k's local slot count (ghosts included).
	check := func(owners []int, slots [2]int) {
		t.Helper()
		if n := mw.plane.NumStreams(); n != len(owners) {
			t.Fatalf("plane NumStreams = %d, want %d", n, len(owners))
		}
		owned := [2]int{}
		for g, want := range owners {
			if k, ok := mw.plane.Owner(g); !ok || k != want {
				t.Fatalf("Owner(%d) = %d,%v, want %d,true", g, k, ok, want)
			}
			owned[want]++
			for k := 0; k < 2; k++ {
				sh := mw.plane.Shard(k)
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
			if n := mw.plane.Shard(k).NumStreams(); n != slots[k] {
				t.Fatalf("shard %d slots = %d, want %d", k, n, slots[k])
			}
			if got := gauge(k); got != float64(owned[k]) {
				t.Fatalf("shard %d iqpaths_shard_streams = %v, want %d", k, got, owned[k])
			}
		}
		for _, g := range []int{-1, -1 << 40, len(owners), 1 << 20} {
			if k, ok := mw.plane.Owner(g); ok {
				t.Fatalf("Owner(%d) = %d, want not owned", g, k)
			}
			for k := 0; k < 2; k++ {
				if _, ok := mw.plane.Shard(k).LocalIndex(g); ok || mw.plane.Shard(k).Owns(g) {
					t.Fatalf("shard %d owns never-issued stream %d", k, g)
				}
			}
		}
	}
	check([]int{0, 0, 0}, [2]int{3, 0})
	if err := mw.plane.Rebind(1, 1); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	mw.plane.Tick(1)
	mw.plane.Tick(2)
	check([]int{0, 1, 0}, [2]int{3, 1})
	if err := mw.plane.Rebind(1, 0); err != nil {
		t.Fatalf("Rebind back: %v", err)
	}
	mw.plane.Tick(3)
	mw.plane.Tick(4)
	// The return takes a fresh slot; the old one stays a ghost.
	check([]int{0, 0, 0}, [2]int{4, 1})
}

// TestStatsAggregatesByGlobalID checks that Plane.Stats re-indexes
// per-shard counters under global stream IDs and survives migration
// (counts accrued on both shards sum).
func TestStatsAggregatesByGlobalID(t *testing.T) {
	mw := newMigWorld(t, 10)
	g0, _ := mw.plane.AddStream(stream.Spec{Name: "a", Kind: stream.BestEffort, QueueLimit: 100})
	g1, _ := mw.plane.AddStream(stream.Spec{Name: "b", Kind: stream.BestEffort, QueueLimit: 100})
	mw.plane.Tick(0)
	for i := 0; i < 10; i++ {
		mw.plane.Offer(g0, mw.nets[0].NewPacket(g0, dBits))
		mw.plane.Offer(g1, mw.nets[0].NewPacket(g1, dBits))
	}
	mw.plane.Tick(1)
	if err := mw.plane.Rebind(g1, 1); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	for now := int64(2); now < 40; now++ {
		mw.plane.Tick(now)
	}
	st := mw.plane.Stats()
	if len(st.PerStream) != 2 {
		t.Fatalf("PerStream len = %d, want 2", len(st.PerStream))
	}
	sent0 := st.PerStream[g0].Scheduled + st.PerStream[g0].OtherPath + st.PerStream[g0].Unscheduled
	sent1 := st.PerStream[g1].Scheduled + st.PerStream[g1].OtherPath + st.PerStream[g1].Unscheduled
	if sent0 != 10 || sent1 != 10 {
		t.Fatalf("per-global-stream sends = %d,%d, want 10,10", sent0, sent1)
	}
	total := st.ScheduledSent + st.OtherPathSent + st.UnscheduledSent
	if total != 20 {
		t.Fatalf("aggregate sends = %d, want 20", total)
	}
}
