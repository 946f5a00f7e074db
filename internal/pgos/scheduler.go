package pgos

import (
	"fmt"
	"math"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Config parameterizes a PGOS scheduler.
type Config struct {
	// TwSec is the scheduling-window length in seconds (default 1.0).
	TwSec float64
	// TickSeconds is the underlying clock tick (required).
	TickSeconds float64
	// PaceLimit bounds per-path queued packets (default
	// sched.DefaultPaceLimit).
	PaceLimit int
	// OnReject is invoked when admission control cannot satisfy a stream
	// (the paper's upcall to the application). May be nil.
	OnReject func(s *stream.Stream)
	// MeanPrediction switches resource mapping to mean-bandwidth
	// predictions (the ablation isolating the statistical predictor's
	// contribution from the scheduler's).
	MeanPrediction bool
	// Telemetry receives the scheduler's metrics (iqpaths_pgos_*). Nil
	// routes them to a private registry so instrumentation stays
	// branch-free on the hot path.
	Telemetry *telemetry.Registry
	// OnRemap is invoked after each resource-mapping rebuild with the new
	// mapping and the wall-clock time the rebuild took. May be nil.
	OnRemap func(m Mapping, latencySec float64)
}

const (
	// ksThreshold is the Kolmogorov–Smirnov distance between a path's
	// current bandwidth CDF and the CDF at the last mapping beyond which
	// the mapping is rebuilt.
	ksThreshold = 0.15
	// feasibilitySlack loosens the per-window mapping-validity check to
	// avoid remap thrash on small drifts.
	feasibilitySlack = 0.02
)

func (c *Config) fillDefaults() {
	if c.TwSec <= 0 {
		c.TwSec = 1.0
	}
	if c.TickSeconds <= 0 {
		panic("pgos: Config.TickSeconds is required")
	}
	if c.PaceLimit <= 0 {
		c.PaceLimit = sched.DefaultPaceLimit
	}
}

// Stats counts scheduler events.
type Stats struct {
	// Remaps is the number of resource-mapping rebuilds.
	Remaps uint64
	// ScheduledSent / OtherPathSent / UnscheduledSent count packets sent
	// under Table 1 precedence rules 1, 2, and 3 respectively.
	ScheduledSent   uint64
	OtherPathSent   uint64
	UnscheduledSent uint64
	// SlotMisses counts scheduled slots forfeited because the stream had
	// no packet queued when its slot came up.
	SlotMisses uint64
	// SendFailures counts packets lost to a Send refused despite pacing
	// (should stay 0 when PaceLimit ≤ the path's queue bound).
	SendFailures uint64
	// PerStream[i] breaks the sent counters down by stream index.
	PerStream []StreamStats
}

// StreamStats is the per-stream slice of the scheduler's counters.
type StreamStats struct {
	Scheduled   uint64
	OtherPath   uint64
	Unscheduled uint64
}

// Scheduler is the PGOS routing/scheduling engine.
//
// Dispatch decisions that historically scanned every stream × path pair
// per tick run on incremental structures sized to the *active* work:
// rule 2 consults one virtual-deadline min-heap per quota path (stale
// keys are lower bounds, corrected in place, so a not-due top answers the
// common no-op consult in O(1)); rule 3 consults a persistent
// packet-deadline heap maintained event-wise from stream queue activity;
// and the V^P walk checks the visit under its cursor, then binary-searches
// per-path occurrence lists instead of scanning the (possibly 10⁵-entry)
// vector. Every decision remains bit-identical to the reference linear
// scans, which the differential tests run beside them.
type Scheduler struct {
	cfg     Config
	streams []*stream.Stream
	paths   []sched.PathService
	mons    []*monitor.PathMonitor

	mapping     Mapping
	haveMap     bool
	vp          []int
	vpCur       int
	vpPos       [][]int32 // per path: ascending positions of j in vp
	vs          [][]int
	vsCur       []int
	cells       []cell // [i*len(paths)+j]: per-(stream, path) window quota state
	windowStart int64
	windowEnd   int64
	windowTick  int64 // ticks per scheduling window
	lookahead   int64 // ticks a slot may be released before its deadline
	grace       int64 // ticks past deadline before an empty slot forfeits
	fallbackCur int   // round-robin cursor over paths outside V^P
	stats       Stats
	dirty       bool // stream set changed; force remap

	// Blocked-path backoff (§5.2.2: "because of the high cost of
	// blocking, timeouts and exponential backoff are used to avoid
	// sending multiple packets to a blocked path").
	blockedUntil []int64
	backoffTicks []int64
	now          int64

	// Incremental dispatch state (scheduler_heaps.go).
	r2 r2State
	r3 r3State

	// Reusable window-boundary scratch: live Distribution views and the
	// mapping-validity check's ordering buffers. These make a
	// steady-state window boundary allocation-free.
	dists      []stats.Distribution
	satScratch satisfyScratch

	// oracle, when non-nil, audits every dispatch decision against a
	// reference; the differential tests install one, production never does.
	oracle oracle

	tel schedTelemetry
}

// cell is one (stream, path) pair's quota state for the current window,
// packed so a dispatch decision touches one cache line per cell.
type cell struct {
	left   int32  // scheduled slots left this window
	mapped int32  // the window's mapped packet count (Mapping.Packets)
	ver    uint32 // version of the cell's rule-2 heap entry
}

// oracle cross-checks one dispatch decision per precedence rule.
type oracle interface {
	freePath(j, nextCur int)
	otherPath(j int, now int64, i, j2 int)
	unscheduled(j, i int)
}

// schedTelemetry holds the scheduler's metric handles; always non-nil
// fields (a private registry backs them when Config.Telemetry is nil).
type schedTelemetry struct {
	remaps       *telemetry.Counter
	remapLatency *telemetry.Histogram
	slotAllocs   *telemetry.Counter
	scheduled    *telemetry.Counter
	otherPath    *telemetry.Counter
	unscheduled  *telemetry.Counter
	slotMisses   *telemetry.Counter
	sendFailures *telemetry.Counter
	pathSent     []*telemetry.Counter
	queueDepth   []*telemetry.Histogram
}

func newSchedTelemetry(reg *telemetry.Registry, paths []sched.PathService) schedTelemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := schedTelemetry{
		remaps:       reg.Counter("iqpaths_pgos_remaps_total", "Resource-mapping rebuilds."),
		remapLatency: reg.Histogram("iqpaths_pgos_remap_latency_seconds", "Wall-clock cost of one mapping rebuild."),
		slotAllocs:   reg.Counter("iqpaths_pgos_slot_allocations_total", "Scheduled packet slots allocated at window boundaries."),
		scheduled:    reg.Counter("iqpaths_pgos_scheduled_sent_total", "Packets sent under Table 1 rule 1."),
		otherPath:    reg.Counter("iqpaths_pgos_other_path_sent_total", "Packets sent under Table 1 rule 2."),
		unscheduled:  reg.Counter("iqpaths_pgos_unscheduled_sent_total", "Packets sent under Table 1 rule 3."),
		slotMisses:   reg.Counter("iqpaths_pgos_slot_misses_total", "Scheduled slots forfeited with no packet queued."),
		sendFailures: reg.Counter("iqpaths_pgos_send_failures_total", "Sends refused by a path despite pacing."),
	}
	for _, p := range paths {
		t.pathSent = append(t.pathSent,
			reg.Counter("iqpaths_pgos_path_sent_total", "Packets dispatched per path.", "path", p.Name()))
		t.queueDepth = append(t.queueDepth,
			reg.Histogram("iqpaths_pgos_queue_depth_packets", "Per-tick queued packets per path.", "path", p.Name()))
	}
	return t
}

// New builds a PGOS scheduler over parallel slices of paths and their
// monitors (mons[j] watches paths[j]). The scheduler installs itself as
// each stream's queue observer (stream.SetObserver) to keep its
// unscheduled-traffic heap current; a stream must not be shared with a
// second observer-installing scheduler.
func New(cfg Config, streams []*stream.Stream, paths []sched.PathService, mons []*monitor.PathMonitor) *Scheduler {
	cfg.fillDefaults()
	// An empty stream set is legal: a freshly created scheduler shard has
	// no streams until the plane places some (AddStream), and every window
	// boundary until then maps the empty set to empty vectors.
	if len(paths) == 0 {
		panic("pgos: need at least one path")
	}
	if len(mons) != len(paths) {
		panic("pgos: need one monitor per path")
	}
	s := &Scheduler{
		cfg:        cfg,
		streams:    streams,
		paths:      paths,
		mons:       mons,
		windowTick: int64(math.Round(cfg.TwSec / cfg.TickSeconds)),
		dirty:      true,
	}
	if s.windowTick < 1 {
		s.windowTick = 1
	}
	// Slots are released against their virtual deadlines: a little early
	// (lookahead keeps pipes from idling at tick granularity) and forfeited
	// only well after expiry (grace absorbs frame-burst arrival phasing).
	s.lookahead = s.windowTick / 50
	if s.lookahead < 1 {
		s.lookahead = 1
	}
	s.grace = s.windowTick / 10
	if s.grace < 1 {
		s.grace = 1
	}
	s.blockedUntil = make([]int64, len(paths))
	s.backoffTicks = make([]int64, len(paths))
	s.r2.reset(len(streams), len(paths))
	s.r3.reset(len(streams))
	for _, st := range streams {
		st.SetObserver(s.onStreamEvent)
	}
	s.tel = newSchedTelemetry(cfg.Telemetry, paths)
	return s
}

// onStreamEvent is the stream-queue observer: any push/pop/push-front
// invalidates the stream's unscheduled-heap entry and queues it for
// re-evaluation at the next rule-3 consult.
func (s *Scheduler) onStreamEvent(id int) {
	if id >= len(s.r3.ver) {
		return // stream added without AddStream; picked up at next remap
	}
	s.r3.touch(id)
	if id < len(s.r2.dropped) && s.r2.dropped[id] {
		// Rule-2 cells evicted while the queue was empty: re-key them now
		// that the queue changed (only a push can fire while empty).
		s.r2.dropped[id] = false
		for j, c := range s.row(id) {
			if c.left > 0 {
				s.r2Requeue(id, j)
			}
		}
	}
}

// maxBackoffTicks caps the blocked-path backoff at roughly one scheduling
// window so a recovered path is retried within the current guarantees.
func (s *Scheduler) maxBackoffTicks() int64 { return s.windowTick }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "PGOS" }

// Stats returns a copy of the scheduler's counters (the per-stream slice
// is copied too).
func (s *Scheduler) Stats() Stats {
	out := s.stats
	out.PerStream = append([]StreamStats(nil), s.stats.PerStream...)
	return out
}

// Mapping returns the active resource mapping (zero value before the
// first window with warm monitors).
func (s *Scheduler) Mapping() Mapping { return s.mapping }

// AddStream registers a new stream; the next window boundary remaps
// (paper: "when a new stream joins"). The stream's ID must equal its
// index; a mismatch panics, because StreamStats, the accountant, and the
// mapping all address streams by index and a skewed ID silently
// mis-attributes every per-stream counter.
func (s *Scheduler) AddStream(st *stream.Stream) {
	if st.ID != len(s.streams) {
		panic(fmt.Sprintf("pgos: AddStream: stream %q has ID %d, want index %d",
			st.Name, st.ID, len(s.streams)))
	}
	s.streams = append(s.streams, st)
	s.r3.grow(len(s.streams))
	s.r3.touch(st.ID)
	st.SetObserver(s.onStreamEvent)
	s.dirty = true
}

// SetPaths rebinds the scheduler to a new path set after the control
// plane reroutes (mons[j] must watch paths[j], warm enough to map as soon
// as possible). Every path-indexed structure — scheduling vectors, window
// quotas, blocked-path backoff — is reset; the active mapping is
// discarded, so the next window boundary recomputes it against the new
// paths' distributions exactly as an Invalidate would.
func (s *Scheduler) SetPaths(paths []sched.PathService, mons []*monitor.PathMonitor) {
	if len(paths) == 0 {
		panic("pgos: SetPaths needs at least one path")
	}
	if len(mons) != len(paths) {
		panic("pgos: SetPaths needs one monitor per path")
	}
	s.paths = paths
	s.mons = mons
	s.mapping = Mapping{}
	s.haveMap = false
	s.dirty = true
	s.vp = nil
	s.vpCur = 0
	s.vpPos = nil
	s.vs = nil
	s.vsCur = nil
	s.cells = nil
	s.fallbackCur = 0
	s.blockedUntil = make([]int64, len(paths))
	s.backoffTicks = make([]int64, len(paths))
	s.r2.reset(len(s.streams), len(paths))
	s.r3.markAllDirty()
	// Per-path metric handles follow the new path set; the registry
	// get-or-creates, so a path that returns keeps its counters.
	s.tel = newSchedTelemetry(s.cfg.Telemetry, paths)
}

// Invalidate forces a resource remap at the next window boundary. Call it
// after changing a stream's utility specification in place — e.g. the
// SmartPointer client promoting its out-of-view stream when the observer
// swings the viewing angle, or an application lowering a requirement
// after a rejection upcall. The dispatch heaps re-key immediately so the
// changed window-constraint ratios take effect this window, exactly as
// the reference scans (which read the spec live) would.
func (s *Scheduler) Invalidate() {
	s.dirty = true
	s.rebuildR2()
	s.r3.markAllDirty()
}

// Tick implements sched.Scheduler: window bookkeeping then the Fig. 7
// dispatch loop.
func (s *Scheduler) Tick(now int64) {
	if now >= s.windowEnd {
		s.beginWindow(now)
	}
	for j, p := range s.paths {
		s.tel.queueDepth[j].Observe(float64(p.QueuedPackets()))
	}
	s.dispatch(now)
}

// liveDists refreshes the scratch slice of per-path Distribution views.
// The views answer exactly as snapshots taken this tick would, without
// copying a window.
func (s *Scheduler) liveDists() []stats.Distribution {
	if cap(s.dists) < len(s.mons) {
		s.dists = make([]stats.Distribution, len(s.mons))
	}
	s.dists = s.dists[:len(s.mons)]
	for j, m := range s.mons {
		s.dists[j] = m.Dist()
	}
	return s.dists
}

// beginWindow runs Fig. 7 lines 1–11: updateCDF happens continuously in
// the monitors; here the scheduler decides whether the active scheduling
// vectors still satisfy the current CDFs and rebuilds them if not. The
// Lemma 1/Lemma 2 revalidation runs against the monitors' live windows
// (no snapshots); only an actual remap materializes baselines.
func (s *Scheduler) beginWindow(now int64) {
	s.windowStart = now
	s.windowEnd = now + s.windowTick
	warm := true
	for _, m := range s.mons {
		if !m.Warm() {
			warm = false
			break
		}
	}
	if warm {
		need := s.dirty || !s.haveMap
		if !need {
			for _, m := range s.mons {
				if m.DramaticChange(ksThreshold) {
					need = true
					break
				}
			}
		}
		if !need {
			if !s.mapping.satisfiedWith(s.streams, s.liveDists(), feasibilitySlack, &s.satScratch) {
				need = true
			}
		}
		if need {
			s.remap()
		}
	}
	// Reset per-window quotas and cursors from the active mapping.
	if s.haveMap {
		np := len(s.paths)
		if s.cells == nil || len(s.cells) != len(s.streams)*np {
			s.cells = make([]cell, len(s.streams)*np)
		}
		var slots uint64
		for i := range s.streams {
			row := s.row(i)
			for j := range row {
				var x int32
				if i < len(s.mapping.Packets) {
					x = int32(s.mapping.Packets[i][j])
				}
				row[j].left, row[j].mapped = x, x
				slots += uint64(x)
			}
		}
		s.tel.slotAllocs.Add(slots)
		s.vpCur = 0
		for j := range s.vsCur {
			s.vsCur[j] = 0
		}
	}
	// Fresh quotas mean fresh slot deadlines and surplus figures: rebuild
	// the rule-2 heap from the reset quota matrix and re-key every rule-3
	// candidate.
	s.rebuildR2()
	s.r3.markAllDirty()
}

func (s *Scheduler) remap() {
	wasRejected := make([]bool, len(s.streams))
	if s.haveMap {
		copy(wasRejected, s.mapping.Rejected)
	}
	dists := s.liveDists()
	remapStart := time.Now()
	s.mapping = ComputeMappingOpts(s.streams, dists, s.cfg.TwSec, MapOptions{MeanPrediction: s.cfg.MeanPrediction})
	remapLatency := time.Since(remapStart).Seconds()
	s.haveMap = true
	s.dirty = false
	s.stats.Remaps++
	s.tel.remaps.Inc()
	s.tel.remapLatency.Observe(remapLatency)
	constraint := make([]float64, len(s.streams))
	for i, st := range s.streams {
		constraint[i] = st.WindowConstraintRatio()
	}
	s.vp = BuildPathVector(s.mapping)
	s.vs = BuildStreamVectors(s.mapping, constraint)
	s.vsCur = make([]int, len(s.paths))
	s.rebuildVPPos()
	for _, m := range s.mons {
		m.MarkBaseline()
	}
	if s.cfg.OnReject != nil {
		for i, rej := range s.mapping.Rejected {
			if rej && !wasRejected[i] {
				s.cfg.OnReject(s.streams[i])
			}
		}
	}
	if s.cfg.OnRemap != nil {
		s.cfg.OnRemap(s.mapping, remapLatency)
	}
}

// dispatch is Fig. 7 lines 12–17: visit paths in V^P order, serving each
// visit with the Table 1 precedence. Scheduled slots are released no
// earlier than their virtual deadlines, so the window's proportions hold
// in time, not just in count; rule 2 consequently fires only when a slot
// is due and its own path cannot take it.
func (s *Scheduler) dispatch(now int64) {
	s.now = now
	for {
		j := s.nextFreePath()
		if j < 0 {
			return
		}
		pkt, srcStream, quotaPath := s.nextScheduled(j, now)
		rule := 1
		if pkt == nil {
			pkt, srcStream, quotaPath = s.nextOtherPath(j, now)
			rule = 2
		}
		if pkt == nil {
			pkt, srcStream, quotaPath = s.nextUnscheduled(j)
			rule = 3
		}
		if pkt == nil {
			return
		}
		if !s.paths[j].Send(pkt) {
			// The path refused despite apparent room: requeue the packet,
			// restore its quota, and back off exponentially before
			// offering this path more traffic (§5.2.2).
			s.stats.SendFailures++
			s.tel.sendFailures.Inc()
			s.streams[srcStream].PushFront(pkt)
			if quotaPath >= 0 {
				s.cells[srcStream*len(s.paths)+quotaPath].left++
				// The restored slot's deadline moved *earlier*; the rule-2
				// heap needs a freshly keyed entry (stale entries are only
				// trusted as lower bounds).
				s.r2Touch(srcStream, quotaPath)
			}
			if rule == 1 {
				// Rewind the V^S cursor so the restored slot is revisited.
				s.vsCur[j]--
			}
			if s.backoffTicks[j] == 0 {
				s.backoffTicks[j] = 1
			} else if s.backoffTicks[j] < s.maxBackoffTicks() {
				s.backoffTicks[j] *= 2
			}
			s.blockedUntil[j] = now + s.backoffTicks[j]
			continue
		}
		s.backoffTicks[j] = 0
		for len(s.stats.PerStream) < len(s.streams) {
			s.stats.PerStream = append(s.stats.PerStream, StreamStats{})
		}
		s.tel.pathSent[j].Inc()
		switch rule {
		case 1:
			s.stats.ScheduledSent++
			s.stats.PerStream[srcStream].Scheduled++
			s.tel.scheduled.Inc()
		case 2:
			s.stats.OtherPathSent++
			s.stats.PerStream[srcStream].OtherPath++
			s.tel.otherPath.Inc()
		default:
			s.stats.UnscheduledSent++
			s.stats.PerStream[srcStream].Unscheduled++
			s.tel.unscheduled.Inc()
		}
	}
}

// nextFreePath returns the next path with pace room in V^P order,
// falling back to a round-robin over all paths when no scheduled visit
// can proceed. Whenever a path is blocked the scheduler switches to the
// next immediately (§5.2.2).
func (s *Scheduler) nextFreePath() int {
	j, nextCur := s.selectFreePathVP()
	if s.oracle != nil {
		s.oracle.freePath(j, nextCur)
	}
	if j >= 0 {
		s.vpCur = nextCur
		return j
	}
	// No V^P path has room (or none is scheduled): fall back to any free
	// path — "there are still free paths to utilize" (§5.2.2), which is
	// how rules 2 and 3 reach paths the mapping left idle.
	for k := 0; k < len(s.paths); k++ {
		jf := (s.fallbackCur + k) % len(s.paths)
		if s.blockedUntil[jf] > s.now {
			continue
		}
		if s.paths[jf].QueuedPackets() < s.cfg.PaceLimit {
			s.fallbackCur = (jf + 1) % len(s.paths)
			return jf
		}
	}
	return -1
}

// slotDeadline returns the tick (relative to window start) at which stream
// i's next scheduled slot on path j falls due: k·tw/x for its k-th packet.
func (s *Scheduler) slotDeadline(i, j int) int64 {
	c := &s.cells[i*len(s.paths)+j]
	k := c.mapped - c.left + 1
	return int64(float64(k) / float64(c.mapped) * float64(s.windowTick))
}

// nextScheduled serves precedence rule 1: the next due V^S slot on path j.
// Slots ahead of their deadline wait; a due slot whose stream has nothing
// queued forfeits after the grace period (its data missed the window).
// It returns the packet, its stream index, and the path whose quota was
// consumed (for restoration if the send is refused).
func (s *Scheduler) nextScheduled(j int, now int64) (*simnet.Packet, int, int) {
	if j >= len(s.vs) || len(s.vs[j]) == 0 {
		return nil, -1, -1
	}
	elapsed := now - s.windowStart
	vs := s.vs[j]
	for s.vsCur[j] < len(vs) {
		i := vs[s.vsCur[j]]
		c := &s.cells[i*len(s.paths)+j]
		if c.left <= 0 {
			s.vsCur[j]++
			continue
		}
		dl := s.slotDeadline(i, j)
		if dl > elapsed+s.lookahead {
			// V^S is deadline-ordered: nothing later is due either.
			return nil, -1, -1
		}
		if p := s.streams[i].Pop(); p != nil {
			s.vsCur[j]++
			c.left--
			return p, i, j
		}
		if elapsed > dl+s.grace {
			s.vsCur[j]++
			c.left--
			s.stats.SlotMisses++
			s.tel.slotMisses.Inc()
			// Forfeiting quota raises the stream's unscheduled surplus
			// without any queue event; requeue it for rule-3 evaluation.
			s.r3.touch(i)
			continue
		}
		return nil, -1, -1
	}
	return nil, -1, -1
}

// nextOtherPath serves precedence rule 2: among *due* packets scheduled on
// other paths (their own path has fallen behind), earliest virtual
// deadline first; equal deadlines go to the higher window constraint.
func (s *Scheduler) nextOtherPath(j int, now int64) (*simnet.Packet, int, int) {
	if s.cells == nil {
		return nil, -1, -1
	}
	i, j2 := s.selectOtherPathHeap(j, now)
	if s.oracle != nil {
		s.oracle.otherPath(j, now, i, j2)
	}
	if i < 0 {
		return nil, -1, -1
	}
	s.r2Consume(i, j2)
	return s.streams[i].Pop(), i, j2
}

// nextUnscheduled serves precedence rule 3 for the path being visited:
// packets with no scheduled slot (best-effort streams, or guaranteed
// streams past their window quota), earliest packet deadline first,
// window constraint breaking ties.
func (s *Scheduler) nextUnscheduled(j int) (*simnet.Packet, int, int) {
	i := s.selectUnscheduledHeap(j)
	if s.oracle != nil {
		s.oracle.unscheduled(j, i)
	}
	if i < 0 {
		return nil, -1, -1
	}
	return s.streams[i].Pop(), i, -1
}

// row returns stream i's quota cells (empty for streams that joined after
// the current window began).
func (s *Scheduler) row(i int) []cell {
	np := len(s.paths)
	if (i+1)*np > len(s.cells) {
		return nil
	}
	return s.cells[i*np : (i+1)*np]
}

func (s *Scheduler) totalRemaining(i int) int {
	n := 0
	for _, c := range s.row(i) {
		n += int(c.left)
	}
	return n
}

// totalQuota returns stream i's full per-window scheduled packet count.
func (s *Scheduler) totalQuota(i int) int {
	n := 0
	for _, c := range s.row(i) {
		n += int(c.mapped)
	}
	return n
}
