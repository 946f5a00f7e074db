package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"iqpaths/internal/bwest"
	"iqpaths/internal/control"
	"iqpaths/internal/gossip"
	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/stream"
)

// control_plane: the control loop alone. Seeded admit requests, each
// released after a seeded holding time, against a 2-shard
// control.ShardedAdmission over 8 paths; probe rounds planned by a
// bwest.Estimator and fed to the admission monitors; a 256-node lossy
// gossip.Mesh carrying the admission shards' Publish records and seeded
// link-state changes. Probes, publishes, gossip rounds and link changes
// run at fixed rates, so each request's share of the other work is fixed.
//
// One goroutine runs the merged schedule in due order; each gossip round
// runs beside it on a goroutine of its own, and its results are taken in
// at the next round's due time. Every decision is deterministic in the
// seed and only the timing varies.
//
// The workload's delays are link-state staleness: from the instant a
// link changed to the gossip round after which a node holds the change,
// over every node and every change originated in the measured phase, in
// schedule time. Each change happens a seeded fraction of a round before
// the round that originates it. These delays are deterministic in the
// seed. Wall-clock decision delays would not be: their p99 follows the
// host's millisecond stalls from run to run.
const (
	cpShards        = 2
	cpPaths         = 8
	cpReqPerSec     = 1000
	cpHoldMeanSec   = 0.125
	cpProbeEvery    = 10 * time.Millisecond
	cpProbeBudget   = 2
	cpGossipEvery   = 100 * time.Millisecond
	cpNodes         = 256
	cpGossipLoss    = 0.1
	cpLinks         = 64                   // overlay links whose state changes
	cpLinkPerRound  = 8                    // seeded link-state changes originated per round
	cpDeliverRounds = 6                    // a link-state change must reach every node within this many rounds
	cpTick          = 5 * time.Millisecond // lateness unit: the daemon's tick
	cpWarm          = time.Second
	cpMonWindow     = 128
	cpMonWarm       = 16
	cpMaxQuiescent  = 2000 // rounds allowed for the final convergence
)

// Path availability is Gaussian per path, with fixed means: which path
// holds which mean moves the PGOS mapping, and with it hit_frac, by more
// than the metric's bound, so the seed does not choose it.
var (
	cpMeans = []float64{40, 60, 80, 100, 50, 70, 90, 30}
	cpRelSD = 0.12
	cpHosts = [cpShards]overlay.NodeID{0, cpNodes / 2}
)

// cpSpec builds request i's spec: kind 0 probabilistic, 1 violation
// bound, 2 best effort; u in (0,1) sets the rate and r2 the guarantee.
func cpSpec(name string, kind int, u, r2 float64) stream.Spec {
	rate := 0.5 + 3*u
	switch kind {
	case 0:
		p := 0.9
		if r2 < 0.5 {
			p = 0.95
		}
		return stream.Spec{Name: name, Kind: stream.Probabilistic, RequiredMbps: rate, Probability: p}
	case 1:
		return stream.Spec{Name: name, Kind: stream.ViolationBound, RequiredMbps: rate, MaxViolations: 1 + 2*r2}
	default:
		return stream.Spec{Name: name, Kind: stream.BestEffort, RequiredMbps: 0.5 + u}
	}
}

type cpRequest struct {
	due  time.Duration
	spec stream.Spec
	hold time.Duration
}

type cpLinkChange struct {
	origin overlay.NodeID
	key    gossip.LinkKey
	up     bool
	mbps   float64
}

type cpRelease struct {
	due  time.Duration
	name string
}

type releaseHeap []cpRelease

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(cpRelease)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type cpWorld struct {
	adm     *control.ShardedAdmission
	est     *bwest.Estimator
	mesh    *gossip.Mesh
	truth   *gossip.Table
	means   []float64
	samples *rand.Rand
	reqs    []cpRequest
	links   []cpLinkChange // cpLinkPerRound per gossip round, in order
	// offsets[i] is how long before its originating round link change i
	// happened, in rounds.
	offsets []float64
	// ledger[k][j] is shard k's committed load on path j as last
	// published — what the replicas must converge to.
	ledger [cpShards][cpPaths]float64
	block  [cpPaths][]float64 // current stratified block of draws
	drawn  [cpPaths]int

	// Link-state changes in flight until every node covers them: a change
	// counts as delivered once every node covers it within
	// cpDeliverRounds rounds of its origination.
	inflight            []cpInflight
	linkDue, linkOnTime int
	staleMs             []float64 // per change and node, change → node covers it
	measureFrom         int64     // first round whose changes count

	// The gossip round in flight: its number (-1 when none is left to
	// finish), a channel closed when its goroutine ends, and the
	// goroutine's span recorder.
	pending   int64
	roundDone chan struct{}
	roundRec  *recorder
}

type cpInflight struct {
	rec     gossip.Record
	round   int64
	offset  float64          // rounds between the change and its origination
	missing []overlay.NodeID // nodes that do not cover it yet
	judged  bool             // counted in linkDue
}

// stratified returns n seeded-order points (i+0.5)/n: a seed changes
// which request gets which draw, not the set of draws, so aggregate load
// is the same on every seed.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, p := range rng.Perm(n) {
		out[i] = (float64(p) + 0.5) / float64(n)
	}
	return out
}

func buildControlPlane(cfg runConfig, total time.Duration) *cpWorld {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &cpWorld{
		est:     bwest.NewEstimator(bwest.Config{Paths: cpPaths, Budget: cpProbeBudget, MaxMbps: 150}),
		mesh:    gossip.NewMesh(gossip.Params{Nodes: cpNodes, LossProb: cpGossipLoss, Seed: cfg.seed}),
		truth:   gossip.NewTable(),
		samples: rand.New(rand.NewSource(cfg.seed + 17)),
	}
	w.means = cpMeans
	mons := make([][]*monitor.PathMonitor, cpShards)
	for k := range mons {
		for j := 0; j < cpPaths; j++ {
			m := monitor.New(fmt.Sprintf("s%dp%d", k, j), cpMonWindow, cpMonWarm)
			for s := 0; s < cpMonWindow; s++ {
				u := (float64(s) + 0.5) / cpMonWindow
				m.ObserveBandwidth(w.means[j] * math.Max(0.05, 1+cpRelSD*normQuantile(u)))
			}
			mons[k] = append(mons[k], m)
		}
	}
	w.adm = control.NewShardedAdmission(control.AdmissionOptions{TwSec: 0.5, BestEffortMbps: 1}, mons)

	// Poisson arrivals conditioned on their count: n uniform times.
	n := int(cpReqPerSec * total.Seconds())
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * total.Seconds()
	}
	sort.Float64s(times)
	kinds := rng.Perm(n)
	rates, guars, holds := stratified(rng, n), stratified(rng, n), stratified(rng, n)
	for i, t := range times {
		w.reqs = append(w.reqs, cpRequest{
			due:  time.Duration(t * float64(time.Second)),
			spec: cpSpec(fmt.Sprintf("r%d", i), kinds[i]%3, rates[i], guars[i]),
			hold: time.Duration(-math.Log(1-holds[i]) * cpHoldMeanSec * float64(time.Second)),
		})
	}
	// Changes update a fixed set of overlay links, so the link-state
	// tables (and each round's cost) stay the same size however long the
	// run: new versions of known links, not a growing set of keys. The
	// links' origins are fixed and spread evenly over the mesh's clusters
	// and roles, and the changes visit the links in rounds of a seeded
	// order: where a change starts sets how fast it spreads, so the seed
	// does not choose it.
	var links []gossip.LinkKey
	for i := 0; i < cpLinks; i++ {
		from := overlay.NodeID((i*cpNodes/cpLinks + 5*(i%4)) % cpNodes)
		links = append(links, gossip.LinkKey{From: from, To: overlay.NodeID(rng.Intn(cpNodes))})
	}
	order := rng.Perm(len(links))
	rounds := int(total/cpGossipEvery) + 1
	for i := 0; i < rounds*cpLinkPerRound; i++ {
		k := links[order[i%len(links)]]
		w.links = append(w.links, cpLinkChange{
			origin: k.From, key: k,
			up: rng.Intn(10) != 0, mbps: 10 + 90*rng.Float64(),
		})
	}
	w.offsets = stratified(rng, len(w.links))
	return w
}

// sample draws path j's realised available bandwidth for one probe
// round. Draws are stratified in blocks of the monitor window: every
// cpMonWindow consecutive draws of a path are its distribution's fixed
// quantiles in seeded order, so the admission's percentile estimates,
// and with them its commitments, do not wander with the seed.
func (w *cpWorld) sample(j int) float64 {
	if w.drawn[j]%cpMonWindow == 0 {
		w.block[j] = stratified(w.samples, cpMonWindow)
	}
	u := w.block[j][w.drawn[j]%cpMonWindow]
	w.drawn[j]++
	return w.means[j] * math.Max(0.05, 1+cpRelSD*normQuantile(u))
}

// publish snapshots both shards' committed load into the replication
// table, returning the fresh records for the gossip nodes hosting them.
func (w *cpWorld) publish(ver int64, rec *recorder) [cpShards][]gossip.Record {
	var out [cpShards][]gossip.Record
	for k := 0; k < cpShards; k++ {
		id := rec.begin("control.publish")
		out[k] = w.adm.Publish(k, ver)
		rec.end(id)
		for _, r := range out[k] {
			if sk, j, ok := gossip.ParseAdmissionKey(r.Key); ok && sk < cpShards && j < cpPaths {
				w.ledger[sk][j] = r.Mbps
			}
		}
	}
	return out
}

// startRound hands round's published records to their host nodes,
// originates the round's link-state changes and runs the round on its
// own goroutine, as a daemon gossips beside its admission handlers:
// requests due meanwhile are decided without waiting for it. Nothing else
// touches the mesh, the truth table or the in-flight changes until
// finishRound.
func (w *cpWorld) startRound(round int64, recs [cpShards][]gossip.Record) {
	done := make(chan struct{})
	w.pending, w.roundDone = round, done
	go func() {
		defer close(done)
		for k, rs := range recs {
			for _, r := range rs {
				w.mesh.Table(cpHosts[k]).Apply(r)
				w.truth.Apply(r)
			}
		}
		for i := 0; i < cpLinkPerRound; i++ {
			if idx := int(round)*cpLinkPerRound + i; idx < len(w.links) {
				c := w.links[idx]
				r := w.mesh.Originate(c.origin, c.key, c.up, c.mbps, round)
				w.truth.Apply(r)
				if round >= w.measureFrom {
					missing := make([]overlay.NodeID, cpNodes)
					for n := range missing {
						missing[n] = overlay.NodeID(n)
					}
					w.inflight = append(w.inflight, cpInflight{rec: r, round: round, offset: w.offsets[idx], missing: missing})
				}
			}
		}
		id := w.roundRec.begin("gossip.round")
		w.mesh.Round(round)
		w.roundRec.end(id)
	}()
}

// finishRound runs at the next round's due time, so admission decisions
// do not depend on when the round's goroutine ended: it waits for the
// round, settles its link-state changes and feeds each host's view of
// the admission records back into the admission plane, as a daemon
// ingests gossip deltas.
func (w *cpWorld) finishRound(rec *recorder) {
	if w.pending < 0 {
		return
	}
	<-w.roundDone
	w.settle(w.pending)
	w.pending = -1
	for k := 0; k < cpShards; k++ {
		rs := w.mesh.Table(cpHosts[k]).Records()
		id := rec.begin("control.ingest")
		w.adm.Ingest(rs)
		rec.end(id)
	}
}

// settle runs after round: it records the staleness of every in-flight
// change at each node that now covers it, judges each change delivered
// or late once every node covers it or its delivery deadline passes, and
// retires the changes every node covers.
func (w *cpWorld) settle(round int64) {
	keep := w.inflight[:0]
	for _, c := range w.inflight {
		stale := (float64(round-c.round) + c.offset) * float64(cpGossipEvery) / 1e6
		missing := c.missing[:0]
		for _, n := range c.missing {
			if w.mesh.Table(n).Covers(c.rec) {
				w.staleMs = append(w.staleMs, stale)
			} else {
				missing = append(missing, n)
			}
		}
		c.missing = missing
		switch {
		case c.judged:
		case len(missing) == 0:
			w.linkDue++
			w.linkOnTime++
			c.judged = true
		case round-c.round+1 >= cpDeliverRounds:
			w.linkDue++
			c.judged = true
		}
		if len(missing) > 0 {
			keep = append(keep, c)
		}
	}
	w.inflight = keep
}

func runControlPlane(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	epoch := time.Now()
	total := cpWarm + time.Duration(cfg.seconds)*time.Second
	var setups []float64
	var w *cpWorld
	resume := pauseGC()
	for r := 0; r < setupReps; r++ {
		w = nil // collect the previous set-up's world before timing the next
		setups = append(setups, timeSetup(func() { w = buildControlPlane(cfg, total) }))
	}
	resume()
	out.e2e["setup_s"] = median(setups)
	var rec *recorder
	w.pending = -1
	if cfg.trace {
		rec = newRecorder(epoch, true)
		w.roundRec = newRecorder(epoch, true)
	}

	warmRounds := int64(cpWarm / cpGossipEvery)
	w.measureFrom = warmRounds
	var g0 gossip.Stats

	var rel releaseHeap
	held := map[string]bool{}
	nextReq := 0
	nextProbe, nextGossip := cpProbeEvery, cpGossipEvery
	var round int64

	var m meter
	var c cost
	measuring := false
	var reqs, admits, admitted, late int
	var lateMs []float64
	var marks []sliceMark
	nextMark := cpWarm
	var hits, covered, probeRounds int
	var coveredMbps float64
	var doubleAdmits, badReleases int

	start := time.Now().Add(cpTick)
	for {
		// Next event in due order; ties go requests, releases, probes,
		// then the gossip publish.
		const none = time.Duration(math.MaxInt64)
		tReq, tRel := none, none
		if nextReq < len(w.reqs) {
			tReq = w.reqs[nextReq].due
		}
		if len(rel) > 0 && rel[0].due < total {
			tRel = rel[0].due
		}
		due := tReq
		for _, t := range []time.Duration{tRel, nextProbe, nextGossip} {
			if t < due {
				due = t
			}
		}
		if due >= total {
			break
		}
		if !measuring && due >= cpWarm {
			measuring = true
			m = startMeter()
		}
		for measuring && due >= nextMark {
			marks = append(marks, markNow(float64(reqs)))
			nextMark += time.Second
		}
		at := start.Add(due)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		switch due {
		case tReq:
			r := w.reqs[nextReq]
			nextReq++
			lateness := time.Since(at)
			id := rec.begin("control.admit")
			dec := w.adm.Admit(r.spec)
			rec.end(id)
			if dec.Admitted {
				if held[r.spec.Name] {
					doubleAdmits++
				}
				held[r.spec.Name] = true
				heap.Push(&rel, cpRelease{due: r.due + r.hold, name: r.spec.Name})
			}
			if measuring {
				reqs++
				admits++
				if dec.Admitted {
					admitted++
				}
				if lateness > cpTick {
					late++
				}
				lateMs = append(lateMs, float64(lateness)/1e6)
			}
		case tRel:
			r := heap.Pop(&rel).(cpRelease)
			lateness := time.Since(at)
			id := rec.begin("control.release")
			ok := w.adm.Release(r.name)
			rec.end(id)
			if !ok || !held[r.name] {
				badReleases++
			}
			delete(held, r.name)
			if measuring {
				reqs++
				if lateness > cpTick {
					late++
				}
				lateMs = append(lateMs, float64(lateness)/1e6)
			}
		case nextProbe:
			nextProbe += cpProbeEvery
			// Every path's bandwidth is realised each probe round; the
			// planner chooses which of them are measured. A path's
			// promise holds in a round when its realised bandwidth covers
			// every shard's commitment on it.
			var avail [cpPaths]float64
			for j := range avail {
				avail[j] = w.sample(j)
				var committed float64
				for k := 0; k < cpShards; k++ {
					committed += w.ledger[k][j]
				}
				if measuring && committed > 0 {
					covered++
					if avail[j] >= committed {
						hits++
					}
					coveredMbps += math.Min(avail[j], committed)
				}
			}
			if measuring {
				probeRounds++
			}
			id := rec.begin("bwest.plan")
			plan := w.est.PlanTrains(cpProbeBudget)
			rec.end(id)
			for _, j := range plan {
				id := rec.begin("bwest.observe_probe")
				w.est.ObserveProbe(j, avail[j])
				rec.end(id)
				for k := 0; k < cpShards; k++ {
					w.adm.Observe(k, j, avail[j])
				}
			}
		case nextGossip:
			nextGossip += cpGossipEvery
			w.finishRound(rec)
			if round == warmRounds {
				g0 = w.mesh.Stats()
			}
			w.startRound(round, w.publish(round, rec))
			round++
		}
	}
	w.finishRound(rec)
	c = m.stop()
	marks = append(marks, markNow(float64(reqs)))
	g1 := w.mesh.Stats()

	// Quiescent phase (unmeasured): release everything still held,
	// publish, and gossip until every replica has caught up.
	for rel.Len() > 0 {
		r := heap.Pop(&rel).(cpRelease)
		if !w.adm.Release(r.name) || !held[r.name] {
			badReleases++
		}
		delete(held, r.name)
	}
	final := w.publish(round, nil)
	for k, rs := range final {
		for _, r := range rs {
			w.mesh.Table(cpHosts[k]).Apply(r)
			w.truth.Apply(r)
		}
	}
	want := w.truth.Hash()
	converged := func() bool {
		for n := 0; n < cpNodes; n++ {
			if w.mesh.Table(overlay.NodeID(n)).Hash() != want {
				return false
			}
		}
		return true
	}
	for i := 0; i < cpMaxQuiescent && !converged(); i++ {
		round++
		w.mesh.Round(round)
		w.settle(round)
	}
	out.check(converged(), "gossip tables never converged to the truth after %d quiescent rounds", cpMaxQuiescent)
	out.check(doubleAdmits == 0, "%d stream names admitted twice while held", doubleAdmits)
	out.check(badReleases == 0, "%d releases of streams not held", badReleases)
	for k := 0; k < cpShards; k++ {
		out.check(len(w.adm.Shard(k).Admitted()) == 0, "shard %d still holds %d streams after every release", k, len(w.adm.Shard(k).Admitted()))
		load := w.adm.Shard(k).CommittedLoad()
		for j, v := range load {
			out.check(v == w.ledger[k][j], "shard %d path %d: committed %v, published %v", k, j, v, w.ledger[k][j])
		}
		// Every other shard's host must replicate shard k's ledger.
		for k2 := 0; k2 < cpShards; k2++ {
			if k2 == k {
				continue
			}
			for j := 0; j < cpPaths; j++ {
				r, ok := w.mesh.Table(cpHosts[k2]).Get(gossip.AdmissionKey(k, j))
				out.check(ok && r.Mbps == load[j], "host of shard %d replicates shard %d path %d as %v, ledger %v", k2, k, j, r.Mbps, load[j])
			}
		}
	}

	out.attempted = len(w.reqs) * 2
	out.e2e["goodput_mbps"] = frac(coveredMbps, float64(probeRounds))
	out.e2e["hit_frac"] = frac(float64(hits), float64(covered))
	out.e2e["delay_p50_ms"] = quantile(w.staleMs, 0.5)
	out.e2e["delay_p99_ms"] = quantile(w.staleMs, 0.99)
	out.e2e["delivered_frac"] = frac(float64(w.linkOnTime), float64(w.linkDue))
	out.e2e["ontime_frac"] = 1 - frac(float64(late), float64(reqs))
	out.e2e["cpu_us_per_op"], out.e2e["allocs_per_op"] = perOp(marks)
	out.e2e["admit_frac"] = frac(float64(admitted), float64(admits))

	ls := aggregate(rec, w.roundRec)
	L := out.layer
	L["gen.cpu_frac"] = c.cpuFrac()
	out.stealFrac = stealShare(marks, c.wall)
	L["control.admit_us_p50"] = ls.p("control.admit", 0.5, time.Microsecond)
	L["control.admit_us_p99"] = ls.p("control.admit", 0.99, time.Microsecond)
	L["control.admit_allocs"] = ls.allocsMean("control.admit")
	L["control.release_us_p50"] = ls.p("control.release", 0.5, time.Microsecond)
	L["control.publish_us_p50"] = ls.p("control.publish", 0.5, time.Microsecond)
	L["control.ingest_us_p50"] = ls.p("control.ingest", 0.5, time.Microsecond)
	L["control.decision_late_ms_p99"] = quantile(lateMs, 0.99)
	L["gossip.round_us_p50"] = ls.p("gossip.round", 0.5, time.Microsecond)
	L["gossip.round_allocs"] = ls.allocsMean("gossip.round")
	rounds := float64(g1.Rounds - g0.Rounds)
	L["gossip.bytes_per_round"] = frac(float64(g1.Bytes-g0.Bytes), rounds)
	L["gossip.b_per_node_round"] = frac(float64(g1.Bytes-g0.Bytes), rounds*cpNodes)
	L["gossip.conv_rounds"] = frac(float64(g1.SumConvRounds-g0.SumConvRounds), float64(g1.Converges-g0.Converges))
	L["bwest.observe_probe_ns_p50"] = ls.p("bwest.observe_probe", 0.5, time.Nanosecond)
	L["bwest.plan_us_p50"] = ls.p("bwest.plan", 0.5, time.Microsecond)
	traceLayer(L, out, ls)
	return out, nil
}
