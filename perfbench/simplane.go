package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// sim_plane: the sharded data plane at scale with no wire. 2 shards × 4
// simnet paths carry 10,000 streams mixed as in BenchmarkPlaneScale (80 %
// guaranteed at P=0.95, 20 % best-effort), at 0.8× its rates (0.2 and
// 0.08 Mbps) to keep the generator near a third of a core.
// Ticks run in real time, as live.ShardedDriver runs them; everything
// the workload reports besides cost and lateness is virtual and
// deterministic in the seed.
const (
	spShards      = 2
	spPaths       = 4 // per shard
	spStreams     = 10000
	spTickSec     = 0.01
	spTwSec       = 1.0
	spBits        = 12000.0
	spGRate       = 0.2
	spBERate      = 0.08
	spProb        = 0.95
	spSampleEvery = 10  // ticks between monitor samples
	spMonWindow   = 500 // monitor window, in samples
	spWarmWindows = 2
	spDrainWins   = 2 // unpaced windows after the measured phase
	// spLoad places guaranteed demand at this share of the summed
	// P-th-percentile path capacity: near the feasibility edge, where
	// the outcome carries information (far from it, every arm reads 0 or 1).
	spLoad = 0.9
)

// Capacity draws are stratified: each path's per-window capacities over
// the measured phase are fixed quantiles of its distribution, in a fixed
// well-spread order that the seed rotates, offset by a quarter of the run
// per path, so two paths of a shard never dip in the same window. Every
// shard gets the same four (capacity, jitter) bands in the same path
// order: which path holds which band moves the delay tail by ±15 %, so it
// is fixed. A seed changes which window sees which capacity and the
// streams' injection phases, not the set of capacities, so outcomes stay
// comparable from seed to seed.
var (
	spRelCaps = [spPaths]float64{0.8, 0.95, 1.05, 1.2}
	spJitters = [spPaths]float64{0.06, 0.03, 0.08, 0.05}
)

type simShard struct {
	net   *simnet.Network
	arena *simnet.Arena
	paths []*simnet.Path
	links []*simnet.Link
	mons  []*monitor.PathMonitor
	base  []float64   // nominal capacity per path (Mbps)
	caps  [][]float64 // [path][window] capacity (Mbps)
	// samples[j] is path j's monitor feed: stratified draws from the
	// same distribution as its window capacities, in seeded order. The
	// monitors see a stationary CDF, so remaps stay rare and do not
	// depend on the seed's capacity order.
	samples    [][]float64
	nextSample int
	rec        *recorder
	onDeliver  func(*simnet.Packet) // sp.deliver bound to this shard, made once

	debt  []float64 // by local stream index
	phase []float64

	// Virtual outcome tallies (shard-goroutine owned during ticks).
	created, refused, delivered uint64
	measCreated, measDelivered  uint64
	measBits                    float64
	onTime                      [][3]int32 // by local index: per creation window mod 3
	winMet, winTotal            int
	delays                      [][]float64 // ms, guaranteed, by measured creation window
	busy                        time.Duration
	pushes                      int
}

type simPlane struct {
	plane      *shard.Plane
	shards     []*simShard
	rates      []float64 // by global id
	guaranteed []bool
	quota      int32
	wt         int64
	measFrom   int64 // first measured window
	measTo     int64 // one past the last measured (offering) window
}

func buildSimPlane(cfg runConfig, trace bool, epoch time.Time) *simPlane {
	rng := rand.New(rand.NewSource(cfg.seed))
	sp := &simPlane{wt: int64(spTwSec / spTickSec)}
	measWindows := int64(float64(cfg.seconds) / spTwSec)
	sp.measFrom = spWarmWindows
	sp.measTo = spWarmWindows + measWindows
	totalWindows := int(sp.measTo + spDrainWins)
	sp.quota = int32(math.Floor(spGRate * 1e6 * spTwSec / spBits))

	gPerShard := float64(spStreams) * 0.8 / spShards * spGRate
	var domains []shard.Domain
	for k := 0; k < spShards; k++ {
		ss := &simShard{}
		if trace {
			ss.rec = newRecorder(epoch, true)
		}
		// Scale the shard's paths so the guaranteed demand is spLoad of
		// the summed (1−P)-quantile capacity.
		z := 1.6448536269514722 // standard normal 0.95 quantile
		var qsum float64
		rel := make([]float64, spPaths)
		jit := make([]float64, spPaths)
		for j := range rel {
			rel[j], jit[j] = spRelCaps[j], spJitters[j]
			qsum += rel[j] * (1 - z*jit[j])
		}
		scale := gPerShard / spLoad / qsum
		ss.net = simnet.New(spTickSec, rand.New(rand.NewSource(cfg.seed*7919+int64(k))))
		ss.arena = &simnet.Arena{}
		ss.net.SetArena(ss.arena)
		order := spreadOrder(int(measWindows), rng.Intn(int(measWindows)))
		var svcs []sched.PathService
		for j := 0; j < spPaths; j++ {
			base := rel[j] * scale
			pktsPerTick := base * 1.3 * spTickSec * 1e6 / spBits
			l := ss.net.AddLink(simnet.LinkConfig{
				Name:         fmt.Sprintf("s%dl%d", k, j),
				CapacityMbps: base,
				DelayTicks:   1,
				QueueLimit:   int(4*pktsPerTick) + 400,
			})
			p := ss.net.AddPath(fmt.Sprintf("s%dp%d", k, j), l)
			ss.links = append(ss.links, l)
			ss.paths = append(ss.paths, p)
			ss.base = append(ss.base, base)
			svcs = append(svcs, p)
			// Stratified per-window capacities: normal quantiles at the
			// window midpoints, in seeded order.
			// Warm-up and drain windows run at the median capacity, so
			// every seed measures the same set of capacities.
			wc := make([]float64, totalWindows)
			for wi := range wc {
				wc[wi] = base
			}
			for wi := range order {
				u := order[(wi+j*len(order)/spPaths)%len(order)]
				wc[sp.measFrom+int64(wi)] = base * math.Max(0.05, 1+jit[j]*normQuantile(u))
			}
			ss.caps = append(ss.caps, wc)
			feed := make([]float64, spMonWindow)
			for s, u := range stratified(rng, spMonWindow) {
				feed[s] = base * math.Max(0.05, 1+jit[j]*normQuantile(u))
			}
			ss.samples = append(ss.samples, feed)
			m := monitor.New(p.Name(), spMonWindow, 100)
			for _, v := range feed {
				m.ObserveBandwidth(v)
			}
			ss.mons = append(ss.mons, m)
		}
		sp.shards = append(sp.shards, ss)
		kk := k
		ss.onDeliver = func(pkt *simnet.Packet) { sp.deliver(kk, pkt) }
		domains = append(domains, shard.Domain{
			Paths: svcs,
			Mons:  ss.mons,
			Arena: ss.arena,
			Step:  func(now int64) { sp.step(kk, now) },
		})
	}

	paceLimit := 0
	for _, ss := range sp.shards {
		for _, b := range ss.base {
			if n := int(2 * b * 1.3 * spTickSec * 1e6 / spBits); n > paceLimit {
				paceLimit = n
			}
		}
	}
	sp.plane = shard.NewPlane(shard.Config{
		PGOS: pgos.Config{
			TwSec:       spTwSec,
			TickSeconds: spTickSec,
			PaceLimit:   paceLimit,
		},
		Placement:   shard.LeastLoaded{},
		OnShardTick: sp.onShardTick,
	}, domains)
	for i := 0; i < spStreams; i++ {
		var spec stream.Spec
		if i%5 == 4 {
			spec = stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort}
			sp.rates = append(sp.rates, spBERate)
			sp.guaranteed = append(sp.guaranteed, false)
		} else {
			spec = stream.Spec{Name: fmt.Sprintf("g%d", i), Kind: stream.Probabilistic, RequiredMbps: spGRate, Probability: spProb}
			sp.rates = append(sp.rates, spGRate)
			sp.guaranteed = append(sp.guaranteed, true)
		}
		sp.plane.AddStream(spec)
	}
	perShard := float64(spStreams) * 0.8 / spShards * (spGRate*1e6*spTwSec/spBits + 1) * float64(measWindows)
	for _, ss := range sp.shards {
		for w := int64(0); w < measWindows; w++ {
			ss.delays = append(ss.delays, make([]float64, 0, int(perShard)/int(measWindows)+1))
		}
	}
	// Seeded injection phases, so streams do not emit in lockstep.
	for _, ss := range sp.shards {
		ss.phase = make([]float64, 0, spStreams/spShards+1)
	}
	for i := 0; i < spStreams; i++ {
		k, _ := sp.plane.Owner(i)
		sp.shards[k].phase = append(sp.shards[k].phase, rng.Float64())
	}
	return sp
}

// spreadOrder returns the n stratified points (i+0.5)/n in a fixed
// well-spread order (ascending by bit-reversed index), rotated by off:
// low and high capacities alternate rather than cluster, and a seed moves
// the sequence without changing how its dips are spaced.
func spreadOrder(n, off int) []float64 {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	var idx []int
	for i := 0; i < 1<<bits; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if r < n {
			idx = append(idx, r)
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(idx[(i+off)%n]) + 0.5) / float64(n)
	}
	return out
}

// normQuantile is the standard normal quantile function.
func normQuantile(p float64) float64 { return math.Sqrt2 * math.Erfinv(2*p-1) }

// onShardTick runs on shard k's goroutine after the command drain:
// window bookkeeping, capacity and monitor updates, and CBR injection
// into the shard's own streams.
func (sp *simPlane) onShardTick(sh *shard.Shard, now int64) {
	ss := sp.shards[sh.ID()]
	hook := ss.rec.begin("shard.hook")
	t0 := time.Now()
	w := now / sp.wt
	offering := w < sp.measTo
	if now%sp.wt == 0 {
		for j, l := range ss.links {
			l.SetCapacityScale(ss.caps[j][w] / ss.base[j])
		}
		sp.closeWindow(sh, ss, w-2)
	}
	if now%spSampleEvery == 0 {
		for j, m := range ss.mons {
			id := ss.rec.begin("monitor.observe")
			m.ObserveBandwidth(ss.samples[j][ss.nextSample%len(ss.samples[j])])
			ss.rec.end(id)
		}
		ss.nextSample++
	}
	n := sh.NumStreams()
	for len(ss.debt) < n {
		i := len(ss.debt)
		ss.debt = append(ss.debt, ss.phase[i])
		ss.onTime = append(ss.onTime, [3]int32{})
	}
	if offering {
		for i := 0; i < n; i++ {
			g := sh.GlobalID(i)
			per := sp.rates[g] * 1e6 * spTickSec / spBits
			before := ss.debt[i]
			ss.debt[i] += per
			for ss.debt[i] >= 1 {
				// The packet became due when the debt crossed 1: a
				// sub-tick creation time, carried in Frame.
				at := float64(now) + (1-before)/per
				before -= 1
				ss.debt[i]--
				p := ss.net.NewPacket(g, spBits)
				p.Deadline = now + sp.wt
				p.Frame = math.Float64bits(at)
				ss.created++
				if w >= sp.measFrom {
					ss.measCreated++
				}
				ss.pushes++
				var id int32 = -1
				if ss.pushes%64 == 0 {
					id = ss.rec.begin("shard.offer")
				}
				ok := sh.Stream(i).Push(p)
				ss.rec.end(id)
				if !ok {
					ss.refused++
					simnet.ReleasePacket(p)
				}
			}
		}
	}
	ss.busy += time.Since(t0)
	ss.rec.end(hook)
}

// closeWindow judges creation window w of every guaranteed stream: met
// when at least the per-window quota of its packets arrived by their
// deadlines. Measured windows only.
func (sp *simPlane) closeWindow(sh *shard.Shard, ss *simShard, w int64) {
	if w < 0 {
		return
	}
	slot := w % 3
	for i := range ss.onTime {
		if w >= sp.measFrom && w < sp.measTo && sp.guaranteed[sh.GlobalID(i)] {
			ss.winTotal++
			if ss.onTime[i][slot] >= sp.quota {
				ss.winMet++
			}
		}
		ss.onTime[i][slot] = 0
	}
}

// step is the shard's substrate hook: advance its network one tick and
// account every delivery.
func (sp *simPlane) step(k int, now int64) {
	ss := sp.shards[k]
	t0 := time.Now()
	id := ss.rec.begin("simnet.step")
	ss.net.Step()
	ss.rec.end(id)
	for _, p := range ss.paths {
		p.DrainDelivered(ss.onDeliver)
	}
	ss.busy += time.Since(t0)
}

// deliver accounts one packet delivered on shard k's network.
func (sp *simPlane) deliver(k int, pkt *simnet.Packet) {
	ss := sp.shards[k]
	ss.delivered++
	w := pkt.Created / sp.wt
	if local, ok := sp.plane.Shard(k).LocalIndex(pkt.Stream); ok && pkt.Delivered <= pkt.Deadline {
		ss.onTime[local][w%3]++
	}
	if w >= sp.measFrom && w < sp.measTo {
		ss.measDelivered++
		ss.measBits += pkt.Bits
		if sp.guaranteed[pkt.Stream] {
			at := math.Float64frombits(pkt.Frame)
			ss.delays[w-sp.measFrom] = append(ss.delays[w-sp.measFrom], (float64(pkt.Delivered)-at)*spTickSec*1e3)
		}
	}
}

func runSimPlane(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	epoch := time.Now()
	var setups []float64
	var sp *simPlane
	resume := pauseGC()
	for r := 0; r < setupReps; r++ {
		var p *simPlane
		setups = append(setups, timeSetup(func() { p = buildSimPlane(cfg, cfg.trace, epoch) }))
		if r < setupReps-1 {
			p.plane.Stop()
		} else {
			sp = p
		}
	}
	resume()
	out.e2e["setup_s"] = median(setups)
	runtime.GC()
	var coord *recorder
	if cfg.trace {
		coord = newRecorder(epoch, true)
	}

	tickDur := time.Duration(spTickSec * float64(time.Second))
	pacedTicks := sp.measTo * sp.wt
	totalTicks := (sp.measTo + spDrainWins) * sp.wt
	measFromTick := sp.measFrom * sp.wt
	delivered := func() uint64 {
		var n uint64
		for _, ss := range sp.shards {
			n += ss.delivered
		}
		return n
	}
	var lateTicks int
	var lateMs []float64
	var m meter
	var c cost
	var marks []sliceMark
	ticksPerSec := int64(1 / spTickSec)
	start := time.Now().Add(tickDur)
	for t := int64(0); t < totalTicks; t++ {
		if t == measFromTick {
			m = startMeter()
		}
		if t >= measFromTick && t < pacedTicks && (t-measFromTick)%ticksPerSec == 0 {
			marks = append(marks, markNow(float64(delivered())))
		}
		// The drain windows after the measured phase run unpaced: they
		// only let in-flight packets settle for the virtual accounting.
		if t < pacedTicks {
			due := start.Add(time.Duration(t) * tickDur)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if t >= measFromTick {
				late := time.Since(due)
				if late > tickDur {
					lateTicks++
				}
				if cfg.trace {
					lateMs = append(lateMs, float64(late)/1e6)
				}
			}
		}
		id := coord.begin("shard.tick")
		sp.plane.Tick(t)
		coord.end(id)
		if t == pacedTicks-1 {
			c = m.stop()
			marks = append(marks, markNow(float64(delivered())))
		}
	}

	// Virtual outcomes.
	var created, refused, dlv, measCreated, measDlv uint64
	var measBits float64
	var winMet, winTotal int
	// Delays by creation window, both shards pooled per window.
	delays := make([][]float64, sp.measTo-sp.measFrom)
	for k, ss := range sp.shards {
		created += ss.created
		refused += ss.refused
		dlv += ss.delivered
		measCreated += ss.measCreated
		measDlv += ss.measDelivered
		measBits += ss.measBits
		winMet += ss.winMet
		winTotal += ss.winTotal
		for wi, d := range ss.delays {
			delays[wi] = append(delays[wi], d...)
		}
		// Conservation: every packet created is delivered, refused at
		// the backlog, dropped by a link, or still held by the plane or
		// the network (the shard arena's outstanding count).
		var linkDrops uint64
		for _, l := range ss.links {
			st := l.Stats()
			linkDrops += st.QueueDrops + st.LossDrops
		}
		alive := uint64(ss.arena.Outstanding())
		out.check(ss.created == ss.delivered+ss.refused+linkDrops+alive,
			"shard %d: created %d != delivered %d + refused %d + link drops %d + held %d",
			k, ss.created, ss.delivered, ss.refused, linkDrops, alive)
	}
	guaranteed, admitted := 0, 0
	for k := range sp.shards {
		sh := sp.plane.Shard(k)
		rej := sh.Scheduler().Mapping().Rejected
		for i := 0; i < sh.NumStreams(); i++ {
			if sp.guaranteed[sh.GlobalID(i)] {
				guaranteed++
				if i < len(rej) && !rej[i] {
					admitted++
				}
			}
		}
	}
	out.check(winTotal > 0, "no guaranteed window closed")
	out.check(samples(delays) >= 1000, "only %d delay samples", samples(delays))
	measSec := float64(sp.measTo-sp.measFrom) * spTwSec
	out.attempted = int(created)
	out.e2e["goodput_mbps"] = measBits / measSec / 1e6
	out.e2e["hit_frac"] = frac(float64(winMet), float64(winTotal))
	out.e2e["delay_p50_ms"] = sliceQuantile(delays, 0.5, nil)
	out.e2e["delay_p99_ms"] = sliceQuantile(delays, 0.99, nil)
	out.e2e["delivered_frac"] = frac(float64(measDlv), float64(measCreated))
	out.e2e["ontime_frac"] = 1 - frac(float64(lateTicks), float64(pacedTicks-measFromTick))
	out.e2e["cpu_us_per_op"], out.e2e["allocs_per_op"] = perOp(marks)
	out.e2e["admit_frac"] = frac(float64(admitted), float64(guaranteed))

	recs := []*recorder{coord}
	var busy []float64
	for _, ss := range sp.shards {
		recs = append(recs, ss.rec)
		busy = append(busy, ss.busy.Seconds())
	}
	ls := aggregate(recs...)
	L := out.layer
	L["gen.cpu_frac"] = c.cpuFrac()
	out.stealFrac = stealShare(marks, c.wall)
	L["shard.tick_late_ms_p99"] = quantile(lateMs, 0.99)
	L["monitor.observe_ns_p50"] = ls.p("monitor.observe", 0.5, time.Nanosecond)
	L["shard.tick_us_p50"] = ls.p("shard.tick", 0.5, time.Microsecond)
	L["shard.tick_us_p99"] = ls.p("shard.tick", 0.99, time.Microsecond)
	L["shard.offer_ns_p50"] = ls.p("shard.offer", 0.5, time.Nanosecond)
	L["shard.hook_us_p50"] = ls.p("shard.hook", 0.5, time.Microsecond)
	maxBusy, sumBusy := 0.0, 0.0
	for _, b := range busy {
		sumBusy += b
		maxBusy = math.Max(maxBusy, b)
	}
	L["shard.imbalance"] = frac(maxBusy, sumBusy/float64(len(busy)))
	L["simnet.step_us_p50"] = ls.p("simnet.step", 0.5, time.Microsecond)
	L["simnet.allocs_per_step"] = ls.allocsMean("simnet.step")
	L["live.offer_refused_frac"] = frac(float64(refused), float64(created))
	pgosLayer(L, sp.plane.Stats(), float64(totalTicks)/float64(sp.wt))
	traceLayer(L, out, ls)

	sp.plane.Stop()
	return out, nil
}
