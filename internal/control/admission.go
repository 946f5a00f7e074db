package control

import (
	"math"
	"slices"
	"sync"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// AdmissionOptions tunes the admission controller.
type AdmissionOptions struct {
	// TwSec is the scheduling window the feasibility test assumes
	// (default 1).
	TwSec float64
	// PreemptBestEffort lets a guaranteed stream evict admitted
	// best-effort streams (newest first) when that makes it feasible.
	PreemptBestEffort bool
	// BestEffortMbps is the per-stream load a best-effort admission is
	// assumed to impose on each feasibility test, spread evenly across
	// paths, when the stream's spec names no rate (default 5).
	BestEffortMbps float64
	// OnReject, when non-nil, receives every rejection decision — the
	// paper's upcall carrying the best currently feasible specification.
	OnReject func(Decision)
}

// Decision is the outcome of one admission test.
type Decision struct {
	// Spec is the specification that was tested.
	Spec stream.Spec
	// Admitted reports acceptance; the stream is then counted against
	// path headroom in later tests until Release.
	Admitted bool
	// Reason explains a rejection in one phrase.
	Reason string
	// Preempted names best-effort streams evicted to admit this one.
	Preempted []string
	// BestRateMbps is the largest rate currently feasible at the spec's
	// own guarantee level (0 when even a sliver is infeasible).
	BestRateMbps float64
	// BestProbability is, for probabilistic specs, the highest guarantee
	// probability currently feasible at the requested rate (0 when none).
	BestProbability float64
	// BestSpec, on rejection, is the closest specification the overlay
	// can promise right now — the requested spec with its rate lowered to
	// BestRateMbps. Nil when nothing is feasible or the stream was
	// admitted.
	BestSpec *stream.Spec
	// Warming marks a rejection caused by insufficient measurement, not
	// insufficient bandwidth: no path monitor is warm yet, so the overlay
	// genuinely does not know its headroom. Clients should retry shortly
	// rather than lower their specification.
	Warming bool
}

// Admission is the CDF-based admission controller: a stream is admitted
// only when the PGOS resource-mapping feasibility test — per-path
// guarantee headroom after the rates already committed to admitted
// streams — can meet its specification. Unlike the controller it is
// mutex-guarded, because daemons call it from HTTP handlers while the
// control loop retargets its monitor set.
type Admission struct {
	mu       sync.Mutex
	opt      AdmissionOptions
	mons     []*monitor.PathMonitor
	admitted []admittedStream
	// remote is per-path load committed by other admission shards,
	// replicated in via SetRemoteCommitted; feasibility subtracts it from
	// headroom alongside local commitments.
	remote []float64
	tel    admTelemetry
	// snap caches cdfs(); snap[j] was taken from snapMons[j] at its
	// bandwidth generation snapGens[j].
	snap     []stats.Distribution
	snapMons []*monitor.PathMonitor
	snapGens []uint64
	// guaranteed is committed's scratch for the admitted guaranteed
	// streams it maps.
	guaranteed []*stream.Stream
	// One mapper per use, so no mapping is overwritten while read:
	// Admit's load, tryPreempt's trial loads (taken while Admit still
	// holds its load), and feasible's in-place candidate.
	committedMap, preemptMap, candMap pgos.Mapper
	cand                              stream.Stream
	candOne                           [1]*stream.Stream
}

// admittedStream is one admitted spec. A guaranteed spec's stream is
// built once, at admission, for every later committed-load mapping; the
// mapping reads only its spec, so one instance serves them all.
type admittedStream struct {
	spec   stream.Spec
	stream *stream.Stream // nil for best effort
}

func newAdmitted(spec stream.Spec) admittedStream {
	e := admittedStream{spec: spec}
	if spec.Kind != stream.BestEffort {
		e.stream = stream.New(0, spec)
	}
	return e
}

// NewAdmission returns an admission controller over the given path
// monitors (mons may be nil when a Controller will supply them via
// Config.Admission). Call SetTelemetry to wire metrics.
func NewAdmission(opt AdmissionOptions, mons []*monitor.PathMonitor) *Admission {
	if opt.TwSec <= 0 {
		opt.TwSec = 1
	}
	if opt.BestEffortMbps <= 0 {
		opt.BestEffortMbps = 5
	}
	return &Admission{opt: opt, mons: mons}
}

// SetTelemetry attaches iqpaths_control_* admission metrics and trace
// events; either argument may be nil.
func (a *Admission) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	a.mu.Lock()
	a.tel = newAdmTelemetry(reg, tracer)
	a.tel.streams(len(a.admitted))
	a.mu.Unlock()
}

// SetPaths retargets the feasibility test at a new monitor set — called
// by the Controller on every reroute. Admitted streams persist: they are
// re-expressed against the new paths on the next test.
func (a *Admission) SetPaths(mons []*monitor.PathMonitor) {
	a.mu.Lock()
	a.mons = mons
	a.mu.Unlock()
}

// Observe feeds one bandwidth sample (Mbps) to path j's monitor under
// the admission lock — for daemon deployments where the sampling
// goroutine is not the one calling Admit. Out-of-range j is ignored.
// Simulations feed monitors directly from the event loop instead.
func (a *Admission) Observe(j int, mbps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j >= 0 && j < len(a.mons) {
		a.mons[j].ObserveBandwidth(mbps)
	}
}

// CommittedLoad returns the per-path rates currently promised to
// locally admitted streams (remote shards' load excluded) — the vector a
// sharded deployment publishes over the gossip channel. It is a copy:
// Publish reads it after a.mu is released.
func (a *Admission) CommittedLoad() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.committed(&a.committedMap, a.cdfs(), a.admitted))
}

// SetRemoteCommitted replaces the per-path load attributed to other
// admission shards. Later feasibility tests charge remote[j] against
// path j's headroom before mapping the candidate. A nil slice clears it.
func (a *Admission) SetRemoteCommitted(load []float64) {
	a.mu.Lock()
	a.remote = append(a.remote[:0], load...)
	a.mu.Unlock()
}

// Admitted returns a copy of the admitted specifications in admission
// order.
func (a *Admission) Admitted() []stream.Spec {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]stream.Spec, len(a.admitted))
	for i, e := range a.admitted {
		out[i] = e.spec
	}
	return out
}

// Release withdraws a previously admitted stream by name, freeing its
// committed rate. It reports whether the name was found.
func (a *Admission) Release(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, e := range a.admitted {
		if e.spec.Name == name {
			a.admitted = append(a.admitted[:i], a.admitted[i+1:]...)
			a.tel.release(len(a.admitted))
			return true
		}
	}
	return false
}

// Admit runs the feasibility test for spec and, on success, records it
// against future tests. Best-effort streams are always admitted (they
// ride the unscheduled precedence rule and consume only leftover
// bandwidth, though they do weigh on later tests via BestEffortMbps).
// Rejections carry the best feasible specification and fire the OnReject
// upcall.
func (a *Admission) Admit(spec stream.Spec) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()

	if spec.Kind == stream.BestEffort {
		a.admitted = append(a.admitted, newAdmitted(spec))
		d := Decision{Spec: spec, Admitted: true}
		a.tel.admit(d, len(a.admitted))
		return d
	}
	cdfs := a.cdfs()
	if len(cdfs) == 0 {
		return a.reject(spec, "no paths available", cdfs, nil)
	}
	if !a.anyWarm() {
		// Distinguish "we don't know yet" from "we know there isn't room":
		// with every monitor still warming, the window CDFs are degenerate
		// and any verdict from them would be noise. Warming tells clients
		// to retry, not to lower their spec.
		d := Decision{Spec: spec, Reason: "insufficient samples (monitors warming)", Warming: true}
		a.tel.reject(d)
		if a.opt.OnReject != nil {
			a.opt.OnReject(d)
		}
		return d
	}
	// The admitted streams' committed mapping is computed once here and
	// shared by the test and every best-rate/best-probability probe of a
	// rejection: neither changes the admitted set.
	load := a.withRemote(a.committed(&a.committedMap, cdfs, a.admitted))
	if a.feasible(spec, cdfs, load) {
		a.admitted = append(a.admitted, newAdmitted(spec))
		d := Decision{Spec: spec, Admitted: true}
		a.tel.admit(d, len(a.admitted))
		return d
	}
	if a.opt.PreemptBestEffort {
		if d, ok := a.tryPreempt(spec, cdfs); ok {
			return d
		}
	}
	return a.reject(spec, "insufficient guaranteed headroom", cdfs, load)
}

// anyWarm reports whether at least one path monitor has enough samples
// for its CDF to mean anything.
func (a *Admission) anyWarm() bool {
	for _, m := range a.mons {
		if m.Warm() {
			return true
		}
	}
	return false
}

// tryPreempt evicts admitted best-effort streams newest-first until spec
// becomes feasible. If even a best-effort-free overlay cannot host it,
// nothing is evicted.
func (a *Admission) tryPreempt(spec stream.Spec, cdfs []stats.Distribution) (Decision, bool) {
	working := append([]admittedStream(nil), a.admitted...)
	var evicted []stream.Spec
	for {
		i := lastBestEffort(working)
		if i < 0 {
			return Decision{}, false
		}
		evicted = append(evicted, working[i].spec)
		working = append(working[:i], working[i+1:]...)
		if a.feasible(spec, cdfs, a.withRemote(a.committed(&a.preemptMap, cdfs, working))) {
			break
		}
	}
	a.admitted = append(working, newAdmitted(spec))
	d := Decision{Spec: spec, Admitted: true}
	for _, e := range evicted {
		d.Preempted = append(d.Preempted, e.Name)
		a.tel.preempt(e)
	}
	a.tel.admit(d, len(a.admitted))
	return d, true
}

func lastBestEffort(admitted []admittedStream) int {
	for i := len(admitted) - 1; i >= 0; i-- {
		if admitted[i].spec.Kind == stream.BestEffort {
			return i
		}
	}
	return -1
}

// reject assembles the rejection decision: the best feasible rate at the
// requested guarantee level, the best feasible probability at the
// requested rate, and the resulting best spec, then fires the upcall.
// load is the per-path load the searches test against (nil when there
// are no paths).
func (a *Admission) reject(spec stream.Spec, reason string, cdfs []stats.Distribution, load []float64) Decision {
	d := Decision{Spec: spec, Reason: reason}
	if len(cdfs) > 0 {
		d.BestRateMbps = a.bestRate(spec, cdfs, load)
		if spec.Kind == stream.Probabilistic {
			d.BestProbability = a.bestProbability(spec, cdfs, load)
		}
		if d.BestRateMbps > 0 {
			best := spec
			best.RequiredMbps = math.Floor(d.BestRateMbps*100) / 100
			d.BestSpec = &best
		}
	}
	a.tel.reject(d)
	if a.opt.OnReject != nil {
		a.opt.OnReject(d)
	}
	return d
}

// cdfs snapshots the monitored bandwidth distributions. Cold monitors
// contribute their (near-empty) distribution, which the guarantee math
// treats as zero headroom — admission is conservative until paths warm.
// A path's snapshot is reused while its monitor and that monitor's
// bandwidth generation are unchanged, however the monitor is fed. The
// returned slice is shared: callers read it under a.mu and neither keep
// nor modify it.
func (a *Admission) cdfs() []stats.Distribution {
	if len(a.snap) != len(a.mons) {
		a.snap = make([]stats.Distribution, len(a.mons))
		a.snapMons = make([]*monitor.PathMonitor, len(a.mons))
		a.snapGens = make([]uint64, len(a.mons))
	}
	for i, m := range a.mons {
		if a.snapMons[i] != m || a.snapGens[i] != m.BandwidthGen() {
			a.snap[i] = m.CDF()
			a.snapMons[i] = m
			a.snapGens[i] = m.BandwidthGen()
		}
	}
	return a.snap
}

// committed computes the per-path rates already promised: the PGOS
// mapping of the admitted guaranteed streams (in admission order), plus
// each admitted best-effort stream's assumed load spread evenly. The
// vector is mp's: valid until mp maps again.
func (a *Admission) committed(mp *pgos.Mapper, cdfs []stats.Distribution, admitted []admittedStream) []float64 {
	guaranteed := a.guaranteed[:0]
	beLoad := 0.0
	for _, e := range admitted {
		if e.stream == nil {
			if e.spec.RequiredMbps > 0 {
				beLoad += e.spec.RequiredMbps
			} else {
				beLoad += a.opt.BestEffortMbps
			}
			continue
		}
		guaranteed = append(guaranteed, e.stream)
	}
	a.guaranteed = guaranteed
	out := mp.Map(guaranteed, cdfs, a.opt.TwSec, pgos.MapOptions{}).Committed
	if beLoad > 0 && len(cdfs) > 0 {
		per := beLoad / float64(len(cdfs))
		for j := range out {
			out[j] += per
		}
	}
	return out
}

// withRemote adds the load remote shards committed to a committed-load
// vector, in place, and returns it: the per-path load a candidate must
// fit on top of.
func (a *Admission) withRemote(committed []float64) []float64 {
	for j := range committed {
		if j < len(a.remote) {
			committed[j] += a.remote[j]
		}
	}
	return committed
}

// feasible asks whether spec fits on top of load: the candidate is
// mapped alone with InitialCommitted seeding each path's promised rate,
// so its priority cannot displace already-admitted streams. The mapping
// only reads load.
func (a *Admission) feasible(spec stream.Spec, cdfs []stats.Distribution, load []float64) bool {
	a.cand.Spec = spec.WithDefaults()
	a.candOne[0] = &a.cand
	m := a.candMap.Map(a.candOne[:], cdfs, a.opt.TwSec, pgos.MapOptions{InitialCommitted: load})
	return !m.Rejected[0]
}

// bestRate binary-searches the largest feasible rate at spec's own
// guarantee level. The iteration count is fixed, so the result is
// deterministic for a given monitor state.
func (a *Admission) bestRate(spec stream.Spec, cdfs []stats.Distribution, load []float64) float64 {
	hi := 0.0
	for _, c := range cdfs {
		if !c.IsEmpty() {
			hi += c.Max()
		}
	}
	if hi <= 0 {
		return 0
	}
	at := func(r float64) bool {
		s := spec
		s.RequiredMbps = r
		s.WindowX, s.WindowY = 0, 0 // rate drives the packet need
		return a.feasible(s, cdfs, load)
	}
	if at(hi) {
		return hi
	}
	lo := 0.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// bestProbability binary-searches the highest guarantee probability
// feasible at the requested rate, for probabilistic specs.
func (a *Admission) bestProbability(spec stream.Spec, cdfs []stats.Distribution, load []float64) float64 {
	at := func(p float64) bool {
		s := spec
		s.Probability = p
		return a.feasible(s, cdfs, load)
	}
	const pMin, pMax = 0.01, 0.999
	if !at(pMin) {
		return 0
	}
	if at(pMax) {
		return pMax
	}
	lo, hi := pMin, pMax
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
