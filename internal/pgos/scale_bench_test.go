package pgos_test

import (
	"fmt"
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// BenchmarkScale sweeps the PGOS core over streams × paths through simnet,
// measuring one full steady-state scheduler tick: traffic injection, PGOS
// dispatch, network step, and delivery drain. Windows roll every 100 ticks
// with warm, stable monitors, so the per-op figure includes the amortized
// window-boundary bookkeeping (CDF-change check, mapping revalidation,
// quota reset) but no remaps — the paper's steady state.
//
// Scale constants: every guaranteed stream asks 0.25 Mbps at 95 %; one in
// five streams is best-effort at a 0.1 Mbps offered load. Link capacity is
// provisioned at 2× aggregate demand so admission accepts everything and
// the tick cost measures scheduling, not overload behavior; there rule 1
// carries nearly every packet. The load=0.9 rows offer 0.9 of capacity
// instead, the near-feasibility regime perfbench's sim_plane runs in,
// where most packets leave through rule 2; each row reports the share of
// packets rule 2 sent as rule2_frac.

const (
	benchTickSec = 0.01
	benchTwSec   = 1.0
	benchBits    = 12000.0
	benchGRate   = 0.25 // Mbps per guaranteed stream
	benchBERate  = 0.1  // Mbps offered per best-effort stream
)

type scaleBench struct {
	net        *simnet.Network
	paths      []*simnet.Path
	mons       []*monitor.PathMonitor
	streams    []*stream.Stream
	sched      *pgos.Scheduler
	rates      []float64 // offered Mbps per stream
	debt       []float64
	noise      *rand.Rand
	capMbps    float64
	tick       int64
	windowTick int64
}

// newScaleBench builds an nStreams × nPaths world. load > 0 sizes the
// links so the offered load is that fraction of their capacity; load 0
// provisions 2× aggregate demand.
func newScaleBench(nStreams, nPaths int, load float64) *scaleBench {
	rng := rand.New(rand.NewSource(1))
	net := simnet.New(benchTickSec, rng)

	specs := make([]stream.Spec, nStreams)
	rates := make([]float64, nStreams)
	totalMbps := 0.0
	for i := range specs {
		if i%5 == 4 {
			specs[i] = stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort}
			rates[i] = benchBERate
			totalMbps += benchBERate
		} else {
			specs[i] = stream.Spec{
				Name:         fmt.Sprintf("g%d", i),
				Kind:         stream.Probabilistic,
				RequiredMbps: benchGRate,
				Probability:  0.95,
			}
			rates[i] = benchGRate
			totalMbps += benchGRate
		}
	}
	capMbps := totalMbps*2/float64(nPaths) + 10
	if load > 0 {
		capMbps = totalMbps / load / float64(nPaths)
	}

	// Pace limit must scale with per-tick link throughput or deep demand
	// stalls behind the default 170-packet bound sized for 100 Mbps links.
	capPktsPerTick := capMbps * benchTickSec * 1e6 / benchBits
	paceLimit := int(2 * capPktsPerTick)
	if paceLimit < 170 {
		paceLimit = 170
	}

	sb := &scaleBench{
		net:     net,
		rates:   rates,
		debt:    make([]float64, nStreams),
		noise:   rand.New(rand.NewSource(7)),
		capMbps: capMbps,
	}
	svcs := make([]sched.PathService, 0, nPaths)
	for j := 0; j < nPaths; j++ {
		l := net.AddLink(simnet.LinkConfig{
			Name:         fmt.Sprintf("l%d", j),
			CapacityMbps: capMbps,
			DelayTicks:   1,
			QueueLimit:   2*paceLimit + 100,
		})
		p := net.AddPath(fmt.Sprintf("p%d", j), l)
		sb.paths = append(sb.paths, p)
		svcs = append(svcs, p)
		sb.mons = append(sb.mons, monitor.New(fmt.Sprintf("p%d", j), 500, 100))
	}
	sb.streams = make([]*stream.Stream, nStreams)
	for i, sp := range specs {
		sb.streams[i] = stream.New(i, sp)
	}
	sb.sched = pgos.New(pgos.Config{
		TwSec:       benchTwSec,
		TickSeconds: benchTickSec,
		PaceLimit:   paceLimit,
	}, sb.streams, svcs, sb.mons)
	twSec := float64(benchTwSec)
	sb.windowTick = int64(twSec/benchTickSec + 0.5)

	// Warm every monitor with a full window of samples so the first window
	// boundary maps, then run to steady state: at least two scheduling
	// windows, and enough ticks for every stream's queue storage to reach
	// its compaction plateau (low-rate streams pop once every ~5 ticks).
	for k := 0; k < 500; k++ {
		sb.sampleMonitors()
	}
	warm := int(2 * sb.windowTick)
	if warm < 1200 {
		warm = 1200
	}
	for t := 0; t < warm; t++ {
		sb.tickOnce()
	}
	return sb
}

// sampleMonitors feeds each path monitor one bandwidth sample: the link's
// capacity with ±3 % deterministic noise — enough spread to exercise the
// sliding CDF, too little to trip the KS remap trigger.
func (sb *scaleBench) sampleMonitors() {
	for _, m := range sb.mons {
		m.ObserveBandwidth(sb.capMbps * (1 + 0.03*sb.noise.NormFloat64()))
	}
}

// tickOnce runs one full virtual tick: monitor samples (every 10 ticks,
// the experiment runner's cadence), per-stream CBR injection, one PGOS
// dispatch round, one network step, and the delivery drain.
func (sb *scaleBench) tickOnce() {
	t := sb.tick
	if t%10 == 0 {
		sb.sampleMonitors()
	}
	for i, r := range sb.rates {
		sb.debt[i] += r * 1e6 * benchTickSec / benchBits
		for sb.debt[i] >= 1 {
			sb.debt[i]--
			p := sb.net.NewPacket(i, benchBits)
			p.Deadline = t + sb.windowTick
			if !sb.streams[i].Push(p) {
				simnet.ReleasePacket(p)
			}
		}
	}
	sb.sched.Tick(t)
	sb.net.Step()
	for _, p := range sb.paths {
		p.DrainDelivered(nil)
	}
	sb.tick++
}

func BenchmarkScale(b *testing.B) {
	type row struct {
		streams, paths int
		load           float64
	}
	var rows []row
	for _, nStreams := range []int{10, 100, 1000, 5000} {
		for _, nPaths := range []int{2, 4, 8} {
			rows = append(rows, row{nStreams, nPaths, 0})
		}
	}
	rows = append(rows, row{5000, 4, 0.9}, row{5000, 8, 0.9})
	for _, r := range rows {
		name := fmt.Sprintf("streams=%d/paths=%d", r.streams, r.paths)
		if r.load > 0 {
			name += fmt.Sprintf("/load=%g", r.load)
		}
		b.Run(name, func(b *testing.B) {
			sb := newScaleBench(r.streams, r.paths, r.load)
			before := sb.sched.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.tickOnce()
			}
			b.StopTimer()
			st := sb.sched.Stats()
			rule2 := st.OtherPathSent - before.OtherPathSent
			sent := st.ScheduledSent + st.OtherPathSent + st.UnscheduledSent -
				before.ScheduledSent - before.OtherPathSent - before.UnscheduledSent
			if sent > 0 {
				b.ReportMetric(float64(rule2)/float64(sent), "rule2_frac")
			}
		})
	}
}
