package pgos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// The differential tests run the scheduler with the scan oracle armed,
// which makes every dispatch consult execute both the incremental
// structure (scheduler_heaps.go) and the reference scan
// (scheduler_scan_test.go) and panic on any divergence. They exercise the transitions that stress the
// heaps' invalidation logic: window boundaries, quota exhaustion,
// send-failure restores, slot forfeits, packet deadlines and expiry,
// mid-run stream joins, spec invalidation, and path-set changes.

// diffWorld is a randomized PGOS scenario driven tick by tick with the
// heap/scan cross-check armed.
type diffWorld struct {
	t       *testing.T
	r       *rand.Rand
	s       *Scheduler
	streams []*stream.Stream
	paths   []*fakePath
	mons    []*monitor.PathMonitor
	mk      func(int, float64) *simnet.Packet
	tick    int64
}

func newDiffWorld(t *testing.T, seed int64, nStreams, nPaths int) *diffWorld {
	r := rand.New(rand.NewSource(seed))
	w := &diffWorld{t: t, r: r, mk: pktFactory()}
	for i := 0; i < nStreams; i++ {
		w.streams = append(w.streams, stream.New(i, w.randSpec(i)))
	}
	for j := 0; j < nPaths; j++ {
		w.paths = append(w.paths, &fakePath{id: j, name: string(rune('A' + j))})
		w.mons = append(w.mons, warmMonitor(string(rune('A'+j)), 20+float64(r.Intn(60))))
	}
	ps := make([]sched.PathService, len(w.paths))
	for j, p := range w.paths {
		ps[j] = p
	}
	w.s = New(Config{TickSeconds: 0.01, TwSec: 0.5, PaceLimit: 8}, w.streams, ps, w.mons)
	armOracle(w.s)
	return w
}

func (w *diffWorld) randSpec(i int) stream.Spec {
	spec := stream.Spec{Name: "s", QueueLimit: 64}
	switch w.r.Intn(3) {
	case 0:
		spec.Kind = stream.BestEffort
	case 1:
		spec.Kind = stream.Probabilistic
		spec.RequiredMbps = 1 + w.r.Float64()*10
		spec.Probability = 0.8 + w.r.Float64()*0.19
	default:
		spec.Kind = stream.ViolationBound
		spec.RequiredMbps = 1 + w.r.Float64()*10
		spec.MaxViolations = w.r.Float64() * 5
	}
	if w.r.Intn(4) == 0 {
		spec.WindowX, spec.WindowY = 1+w.r.Intn(5), 5+w.r.Intn(10)
	}
	return spec
}

// step advances one tick: random arrivals (some with deadlines), random
// path-queue drains, occasional forced send refusals, then Tick.
func (w *diffWorld) step() {
	for i, st := range w.streams {
		if w.r.Intn(3) == 0 {
			n := w.r.Intn(4)
			for k := 0; k < n; k++ {
				p := w.mk(i, 12000)
				if w.r.Intn(2) == 0 {
					// A deadline near now exercises expiry and the rule-3
					// park/wake machinery.
					p.Deadline = w.tick + int64(w.r.Intn(40))
				}
				st.Push(p)
			}
		}
	}
	for _, p := range w.paths {
		if w.r.Intn(2) == 0 {
			p.queued = 0
		}
		p.refuse = w.r.Intn(10) == 0
	}
	for _, m := range w.mons {
		m.ObserveBandwidth(40 * (1 + 0.05*w.r.NormFloat64()))
	}
	w.s.Tick(w.tick)
	w.tick++
}

func TestSchedulerHeapMatchesScanRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := newDiffWorld(t, seed, 6, 3)
		for k := 0; k < 3000; k++ {
			w.step()
		}
	}
}

func TestSchedulerHeapMatchesScanSingleStreamManyPaths(t *testing.T) {
	w := newDiffWorld(t, 99, 1, 6)
	for k := 0; k < 2000; k++ {
		w.step()
	}
}

func TestSchedulerHeapMatchesScanWithJoinsAndInvalidation(t *testing.T) {
	w := newDiffWorld(t, 42, 4, 2)
	for k := 0; k < 6000; k++ {
		w.step()
		switch {
		case k == 1500:
			st := stream.New(len(w.streams), w.randSpec(len(w.streams)))
			w.streams = append(w.streams, st)
			w.s.AddStream(st)
		case k == 3000:
			// Mutate a spec in place mid-window, then Invalidate: the
			// heaps must re-key to the changed window constraints.
			w.streams[0].WindowX, w.streams[0].WindowY = 9, 10
			w.s.Invalidate()
		case k == 4500:
			// Reroute onto a fresh path set (one path more).
			w.paths = append(w.paths, &fakePath{id: len(w.paths), name: "R"})
			w.mons = append(w.mons, warmMonitor("R", 35))
			ps := make([]sched.PathService, len(w.paths))
			for j, p := range w.paths {
				ps[j] = p
			}
			w.s.SetPaths(ps, w.mons)
		}
	}
}

// TestRule2TieGoesToLowerPath pins rule 2's last tie-break, which random
// mappings rarely reach: one stream's slots on two other paths fall due
// at the same deadline, and the lower path's slot wins, as in the scan.
func TestRule2TieGoesToLowerPath(t *testing.T) {
	st := stream.New(0, stream.Spec{Name: "s", Kind: stream.Probabilistic, RequiredMbps: 5, Probability: 0.9})
	var ps []sched.PathService
	var mons []*monitor.PathMonitor
	for j := 0; j < 3; j++ {
		ps = append(ps, &fakePath{id: j, name: "p"})
		mons = append(mons, warmMonitor("p", 40))
	}
	s := New(Config{TickSeconds: 0.01, TwSec: 0.5}, []*stream.Stream{st}, ps, mons)
	s.Tick(0)
	if s.cells == nil {
		t.Fatal("no mapping after the first warm window")
	}
	s.mapping.Packets = [][]int{{4, 4, 0}}
	for j, x := range s.mapping.Packets[0] {
		s.cells[j] = cell{left: int32(x), mapped: int32(x)}
	}
	s.rebuildR2()
	st.Push(pktFactory()(0, 12000))
	now := s.windowStart + s.windowTick/2
	if i, j := s.selectOtherPathScan(2, now); i != 0 || j != 0 {
		t.Fatalf("scan picked (%d,%d), want (0,0)", i, j)
	}
	if i, j := s.selectOtherPathHeap(2, now); i != 0 || j != 0 {
		t.Fatalf("heap picked (%d,%d), want (0,0)", i, j)
	}
}

// TestSchedulerHeapMatchesScanOverload drives a persistent backlog so
// rule-3 surplus gating, quota exhaustion, and forfeits all fire, with
// paths that frequently refuse sends (quota restores).
func TestSchedulerHeapMatchesScanOverload(t *testing.T) {
	w := newDiffWorld(t, 7, 5, 2)
	for k := 0; k < 4000; k++ {
		// Heavy arrivals: more than the paths can drain.
		for i, st := range w.streams {
			for n := 0; n < 2; n++ {
				p := w.mk(i, 12000)
				if i%2 == 0 {
					p.Deadline = w.tick + 10
				}
				st.Push(p)
			}
		}
		for _, p := range w.paths {
			if w.r.Intn(3) == 0 {
				p.queued = 0
			}
			p.refuse = w.r.Intn(4) == 0
		}
		for _, m := range w.mons {
			m.ObserveBandwidth(40 * (1 + 0.05*w.r.NormFloat64()))
		}
		w.s.Tick(w.tick)
		w.tick++
	}
}

// TestSchedulerHeapMatchesScanNearCapacity arms the oracle in the regime
// the sim_plane benchmark runs in, where rule 2 carries most packets:
// hundreds of streams over four paths whose guaranteed demand sits near
// the summed 95th-percentile capacity, per-window capacity dips that make
// one path fall behind, and ~0.2 packets per stream per tick, so queues
// keep running empty (rule-2 evictions and in-place re-keys). Random send
// refusals restore quota mid-window.
func TestSchedulerHeapMatchesScanNearCapacity(t *testing.T) {
	const (
		nStreams = 400
		tickSec  = 0.01
		bits     = 12000.0
		gRate    = 0.24 // Mbps: 0.2 packets per tick
		beRate   = 0.1
		ticks    = 2000
	)
	rel := []float64{0.8, 0.95, 1.05, 1.2}
	jit := []float64{0.06, 0.03, 0.08, 0.05}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			streams := make([]*stream.Stream, nStreams)
			rates := make([]float64, nStreams)
			debt := make([]float64, nStreams)
			gMbps := 0.0
			for i := range streams {
				spec := stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: gRate, Probability: 0.95}
				rates[i] = gRate
				if i%5 == 4 {
					spec = stream.Spec{Name: "be", Kind: stream.BestEffort}
					rates[i] = beRate
				} else {
					gMbps += gRate
				}
				streams[i] = stream.New(i, spec)
				debt[i] = r.Float64()
			}
			// Guaranteed demand at 0.9 of the summed 5th-percentile capacity.
			qsum := 0.0
			for j := range rel {
				qsum += rel[j] * (1 - 1.645*jit[j])
			}
			scale := gMbps / 0.9 / qsum
			paths := make([]*fakePath, len(rel))
			ps := make([]sched.PathService, len(rel))
			mons := make([]*monitor.PathMonitor, len(rel))
			base := make([]float64, len(rel))
			credit := make([]float64, len(rel))
			pace := 0
			for j := range rel {
				base[j] = rel[j] * scale
				paths[j] = &fakePath{id: j, name: string(rune('A' + j))}
				ps[j] = paths[j]
				mons[j] = monitor.New(paths[j].name, 200, 100)
				for k := 0; k < 200; k++ {
					mons[j].ObserveBandwidth(base[j] * (1 + jit[j]*r.NormFloat64()))
				}
				if n := int(2 * base[j] * tickSec * 1e6 / bits); n > pace {
					pace = n
				}
			}
			s := New(Config{TickSeconds: tickSec, TwSec: 1.0, PaceLimit: pace}, streams, ps, mons)
			armOracle(s)
			mk := pktFactory()
			capNow := append([]float64(nil), base...)
			evicted := 0 // stream-ticks with rule-2 cells evicted on an empty queue
			for tick := int64(0); tick < ticks; tick++ {
				if tick%100 == 0 {
					for j := range capNow {
						capNow[j] = base[j] * math.Max(0.05, 1+2*jit[j]*r.NormFloat64())
					}
				}
				if tick%10 == 0 {
					for j, m := range mons {
						m.ObserveBandwidth(base[j] * (1 + jit[j]*r.NormFloat64()))
					}
				}
				for i, st := range streams {
					for debt[i] += rates[i] * 1e6 * tickSec / bits; debt[i] >= 1; debt[i]-- {
						p := mk(i, bits)
						p.Deadline = tick + 100
						st.Push(p)
					}
				}
				for j, p := range paths {
					credit[j] += capNow[j] * tickSec * 1e6 / bits
					n := int(credit[j])
					credit[j] -= float64(n)
					p.queued = max(0, p.queued-n)
					p.sent = p.sent[:0]
					p.refuse = r.Intn(25) == 0
				}
				s.Tick(tick)
				for _, d := range s.r2.dropped {
					if d {
						evicted++
					}
				}
			}
			st := s.Stats()
			if st.OtherPathSent == 0 || st.ScheduledSent == 0 || st.SendFailures == 0 || evicted == 0 {
				t.Fatalf("seed %d: regime not reached: rules %d/%d/%d, %d refusals, %d evicted",
					seed, st.ScheduledSent, st.OtherPathSent, st.UnscheduledSent, st.SendFailures, evicted)
			}
		})
	}
}

// TestSchedulerSteadyTickZeroAlloc pins the acceptance criterion
// directly: once warm and mapped, a Tick that moves packets allocates
// nothing.
func TestSchedulerSteadyTickZeroAlloc(t *testing.T) {
	nStreams, nPaths := 16, 3
	var streams []*stream.Stream
	for i := 0; i < nStreams; i++ {
		kind := stream.Probabilistic
		if i%5 == 0 {
			kind = stream.BestEffort
		}
		streams = append(streams, stream.New(i, stream.Spec{
			Name: "s", Kind: kind, RequiredMbps: 2, Probability: 0.9, QueueLimit: 1 << 16,
		}))
	}
	var ps []sched.PathService
	var mons []*monitor.PathMonitor
	paths := make([]*fakePath, nPaths)
	for j := 0; j < nPaths; j++ {
		paths[j] = &fakePath{id: j, name: "p"}
		ps = append(ps, paths[j])
		mons = append(mons, warmMonitor("p", 40))
	}
	s := New(Config{TickSeconds: 0.01, TwSec: 0.5, PaceLimit: 64}, streams, ps, mons)
	// Pre-built packet ring so the harness's own arrivals don't allocate:
	// the measurement isolates the scheduler.
	ring := make([]*simnet.Packet, 4096)
	for k := range ring {
		ring[k] = &simnet.Packet{ID: uint64(k + 1), Bits: 12000}
	}
	ringCur := 0
	r := rand.New(rand.NewSource(5))
	tick := int64(0)
	stepOnce := func() {
		for i, st := range streams {
			if tick%3 == int64(i%3) {
				p := ring[ringCur]
				ringCur = (ringCur + 1) % len(ring)
				p.Stream = i
				st.Push(p)
			}
		}
		for _, m := range mons {
			m.ObserveBandwidth(40 * (1 + 0.03*r.NormFloat64()))
		}
		for _, p := range paths {
			p.queued = 0
			p.sent = p.sent[:0]
		}
		s.Tick(tick)
		tick++
	}
	for k := 0; k < 500; k++ {
		stepOnce() // warm up: maps, grows PerStream, sizes scratch
	}
	allocs := testing.AllocsPerRun(2000, stepOnce)
	// Window boundaries amortize to well under one allocation per tick;
	// steady-state ticks themselves must be allocation-free.
	if allocs > 0.1 {
		t.Fatalf("steady-state Tick allocates %.2f/op, want ~0", allocs)
	}
}
