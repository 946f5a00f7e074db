package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"iqpaths/internal/live"
	"iqpaths/internal/live/testbed"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
	"iqpaths/internal/transport"
)

// liveStream is one stream of a live workload. perWindow packets are
// offered in every scheduling window at a constant rate, so each window
// carries exactly its quota.
type liveStream struct {
	spec      stream.Spec
	perWindow int
}

func (s liveStream) guaranteed() bool { return s.spec.Kind != stream.BestEffort }

// liveScenario is a live workload's fixed shape; only the streams'
// phases and the relays' loss draws vary with the seed.
type liveScenario struct {
	streams []liveStream
	tickSec float64
	twSec   float64
	// warmWindows of traffic precede the measured phase and are excluded
	// from the window accounting.
	warmWindows int
	graceNanos  int64
}

// Live workloads run the daemon's default tick (5 ms) and window (0.5 s).
const (
	liveTickSec  = 0.005
	liveTwSec    = 0.5
	liveProbeSec = 0.25 // iqpathsd's default probe interval
)

// live_overlay sets itself up setupRepsOverlay times and reports the
// median: each set-up waits ~2 s for probe trains, long enough that host
// stalls average out within it.
const setupRepsOverlay = 5

// liveOverlay: the paper's Fig. 8 asymmetry through shaped relays, with
// 1500-byte packets at 12 + 4 Mbps guaranteed and 6 Mbps best-effort.
func liveOverlayScenario() liveScenario {
	const bits = 12000
	perWindow := func(mbps float64) int { return int(mbps * 1e6 * liveTwSec / bits) }
	return liveScenario{
		streams: []liveStream{
			{spec: stream.Spec{Name: "g12", Kind: stream.Probabilistic, RequiredMbps: 12, Probability: 0.9, PacketBits: bits}, perWindow: perWindow(12)},
			{spec: stream.Spec{Name: "g4", Kind: stream.Probabilistic, RequiredMbps: 4, Probability: 0.95, PacketBits: bits}, perWindow: perWindow(4)},
			{spec: stream.Spec{Name: "be6", Kind: stream.BestEffort, PacketBits: bits}, perWindow: perWindow(6)},
		},
		tickSec:     liveTickSec,
		twSec:       liveTwSec,
		warmWindows: 2,
		graceNanos:  int64(150 * time.Millisecond),
	}
}

func runLiveOverlay(cfg runConfig) (*outcome, error) { return runLive(liveOverlayScenario(), cfg) }

// sink is the in-process receiver: it registers Hello contracts with the
// accountant, judges every data arrival against its wire deadline, and
// keeps each stream's arrival stamps in order so the k-th accepted offer
// can be matched to the k-th arrival.
type sink struct {
	clock live.Clock
	acct  *live.Account
	trace bool
	epoch time.Time

	mu       sync.Mutex
	arrivals [][]int64 // by wire stream ID
	seqFault int       // data messages whose RUDP sequence did not increase
	recs     []*recorder
	conns    []*transport.RUDPConn
	wg       sync.WaitGroup
}

func newSink(clock live.Clock, nStreams, capHint int, trace bool, epoch time.Time) *sink {
	s := &sink{clock: clock, acct: live.NewAccount(nil), trace: trace, epoch: epoch}
	for i := 0; i < nStreams; i++ {
		s.arrivals = append(s.arrivals, make([]int64, 0, capHint))
	}
	return s
}

func (s *sink) accept(ln *transport.RUDPListener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var rec *recorder
		if s.trace {
			rec = newRecorder(s.epoch, false)
		}
		s.mu.Lock()
		s.conns = append(s.conns, conn)
		s.recs = append(s.recs, rec)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn, rec)
	}
}

func (s *sink) serve(conn *transport.RUDPConn, rec *recorder) {
	defer s.wg.Done()
	live.Bind(conn, nil, live.NewResponder(s.clock, conn))
	var lastSeq uint64
	var n int
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case transport.KindControl:
			if v, perr := live.ParseFrame(m.Payload); perr == nil {
				if h, ok := v.(*live.Hello); ok {
					s.acct.Register(live.Contract{
						Stream:       h.Stream,
						Name:         h.Name,
						QuotaPackets: int(h.QuotaPackets),
						WindowNanos:  h.WindowNanos,
						GraceNanos:   h.GraceNanos,
						SkipWindows:  int(h.SkipWindows),
					})
				}
			}
		case transport.KindData:
			now := s.clock.Stamp()
			n++
			var id int32 = -1
			if n%8 == 0 {
				id = rec.begin("live.account_observe")
			}
			s.acct.Observe(m.Stream, int64(m.Frame), now)
			rec.end(id)
			s.mu.Lock()
			if m.Seq <= lastSeq && lastSeq != 0 {
				s.seqFault++
			}
			lastSeq = m.Seq
			if int(m.Stream) < len(s.arrivals) {
				s.arrivals[m.Stream] = append(s.arrivals[m.Stream], now)
			}
			s.mu.Unlock()
		}
	}
}

func (s *sink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.arrivals {
		n += len(a)
	}
	return n
}

func (s *sink) counts() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.arrivals))
	for i, a := range s.arrivals {
		out[i] = len(a)
	}
	return out
}

// tracedPath is the sched.PathService decorator of the traced run: it
// brackets every Send into transport.Path. Embedding keeps FlushTick,
// so the driver still finds the path's tick flusher.
type tracedPath struct {
	*transport.Path
	rec            *recorder
	sends, blocked int
}

func (p *tracedPath) Send(pkt *simnet.Packet) bool {
	p.sends++
	var id int32 = -1
	if p.sends%8 == 0 {
		id = p.rec.begin("transport.path_send")
	}
	ok := p.Path.Send(pkt)
	p.rec.end(id)
	if !ok {
		p.blocked++
	}
	return ok
}

// tracedConn is the transport.Conn decorator of the traced run. It keeps
// SendBatch, so transport.Path's writer still batches through it. mu
// orders the writer goroutine's spans and counts before the final read:
// Path.Close does not wait for its writer to exit.
type tracedConn struct {
	*transport.RUDPConn
	mu          sync.Mutex
	rec         *recorder
	calls, msgs int
}

func (c *tracedConn) Send(m *transport.Message) error {
	return c.SendBatch([]*transport.Message{m})
}

func (c *tracedConn) SendBatch(msgs []*transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.rec.begin("transport.conn_send")
	var err error
	if len(msgs) == 1 {
		err = c.RUDPConn.Send(msgs[0])
	} else {
		err = c.RUDPConn.SendBatch(msgs)
	}
	c.rec.end(id)
	c.calls++
	c.msgs += len(msgs)
	return err
}

// counts returns the calls and messages sent so far.
func (c *tracedConn) counts() (calls, msgs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.msgs
}

// liveWorld is one set-up of a live workload: sink, relays,
// connections, paths, monitors, driver and probers.
type liveWorld struct {
	sc     liveScenario
	clock  *live.WallClock
	reg    *telemetry.Registry
	sink   *sink
	ln     *transport.RUDPListener
	relays []*testbed.Relay
	conns  []*transport.RUDPConn
	paths  []*transport.Path
	tpaths []*tracedPath
	tconns []*tracedConn
	mons   []*monitor.PathMonitor
	d      *live.ShardedDriver
	ids    []int

	probers    []*live.Prober
	probeRecs  []*recorder
	probeStop  chan struct{}
	probeWG    sync.WaitGroup
	warmSec    float64
	writerRecs []*recorder
}

// setupLive builds one world; capHint presizes the sink's per-stream
// arrival logs (0 for a world that will carry no traffic).
func setupLive(sc liveScenario, cfg runConfig, capHint int, epoch time.Time) (*liveWorld, error) {
	w := &liveWorld{sc: sc, clock: live.NewWallClock(), reg: telemetry.NewRegistry(), probeStop: make(chan struct{})}
	w.sink = newSink(w.clock, len(sc.streams), capHint, cfg.trace, epoch)
	var err error
	if w.ln, err = transport.ListenRUDP("127.0.0.1:0"); err != nil {
		return w, err
	}
	w.sink.wg.Add(1)
	go w.sink.accept(w.ln)

	var targets []string
	a, b := testbed.Fig8Shapes()
	for j, shape := range []testbed.LinkShape{a, b} {
		r, err := testbed.NewRelay("127.0.0.1:0", w.ln.Addr(), shape, cfg.seed*31+int64(j))
		if err != nil {
			return w, err
		}
		w.relays = append(w.relays, r)
		targets = append(targets, r.Addr())
	}
	names := []string{"A", "B"}
	var svcs []sched.PathService
	for j, addr := range targets {
		conn, err := transport.DialRUDP(addr, 5*time.Second)
		if err != nil {
			return w, fmt.Errorf("dial path %s: %w", names[j], err)
		}
		w.conns = append(w.conns, conn)
		var tc transport.Conn = conn
		if cfg.trace {
			c := &tracedConn{RUDPConn: conn, rec: newRecorder(epoch, false)}
			w.tconns = append(w.tconns, c)
			w.writerRecs = append(w.writerRecs, c.rec)
			tc = c
		}
		p := transport.NewPath(j, names[j], tc, 0)
		p.SetTickPaced(true)
		w.paths = append(w.paths, p)
		w.mons = append(w.mons, monitor.New(names[j], 64, 8))
		svcs = append(svcs, p)
	}
	// The tick loop owns the first recorder; path sends happen inside
	// Step on the same goroutine (a 1-shard plane ticks inline).
	if cfg.trace {
		rec := newRecorder(epoch, false)
		for j, p := range w.paths {
			tp := &tracedPath{Path: p, rec: rec}
			w.tpaths = append(w.tpaths, tp)
			svcs[j] = tp
		}
	}

	w.d = live.NewShardedDriver(live.ShardedConfig{
		Config: live.Config{
			TickSeconds: sc.tickSec,
			TwSec:       sc.twSec,
			Clock:       w.clock,
			Telemetry:   w.reg,
		},
		Placement: shard.LeastLoaded{},
	}, []live.ShardDomain{{Paths: svcs, Mons: w.mons}})
	for i, s := range sc.streams {
		id, _ := w.d.AddStream(s.spec)
		w.ids = append(w.ids, id)
		quota := 0
		if s.guaranteed() {
			quota = s.perWindow
		}
		hello := live.MarshalHello(live.Hello{
			Stream:       uint32(id),
			Name:         s.spec.Name,
			QuotaPackets: uint32(quota),
			WindowNanos:  int64(sc.twSec * 1e9),
			GraceNanos:   sc.graceNanos,
			SkipWindows:  uint32(sc.warmWindows),
		})
		if err := w.conns[0].Send(&transport.Message{Kind: transport.KindControl, Seq: uint64(i + 1), Payload: hello}); err != nil {
			return w, fmt.Errorf("hello: %w", err)
		}
	}
	if err := waitFor(5*time.Second, func() bool {
		for _, id := range w.ids {
			if !w.sink.acct.Registered(uint32(id)) {
				return false
			}
		}
		return true
	}); err != nil {
		return w, errors.New("sink never registered the stream contracts")
	}

	warmStart := time.Now()
	// Probe trains bound as iqpathsd binds them: one prober per
	// connection, its measurements fed to the driver's monitors.
	for j, conn := range w.conns {
		p := live.NewProber(live.ProbeConfig{IntervalSec: liveProbeSec}, w.clock, conn)
		j := j
		p.OnBandwidth = func(mbps float64) { w.d.ObserveBandwidth(0, j, mbps) }
		p.OnRTT = func(sec float64) { w.d.ObserveRTT(0, j, sec) }
		p.OnLoss = func(rate float64) { w.d.ObserveLoss(0, j, rate) }
		live.Bind(conn, p, nil)
		w.probers = append(w.probers, p)
		var rec *recorder
		if cfg.trace {
			rec = newRecorder(epoch, false)
		}
		w.probeRecs = append(w.probeRecs, rec)
		w.probeWG.Add(1)
		go w.probeLoop(p, rec)
	}
	// Probe samples reach the monitors at tick boundaries, so the driver
	// ticks (with nothing offered) while they warm.
	tickDur := time.Duration(sc.tickSec * float64(time.Second))
	if err := waitFor(20*time.Second, func() bool {
		w.d.Step()
		time.Sleep(tickDur)
		return w.d.Warm()
	}); err != nil {
		return w, errors.New("monitors never warmed from probe trains")
	}
	w.warmSec = time.Since(warmStart).Seconds()
	return w, nil
}

// probeLoop is Prober.Run with a span around each probe round.
func (w *liveWorld) probeLoop(p *live.Prober, rec *recorder) {
	defer w.probeWG.Done()
	interval := time.Duration(liveProbeSec * float64(time.Second))
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-w.probeStop:
			return
		case <-t.C:
		}
		id := rec.begin("live.probe")
		err := p.ProbeOnce()
		p.SamplePassive()
		rec.end(id)
		if err != nil {
			return
		}
		t.Reset(interval)
	}
}

// close tears the world down and waits for every goroutine it started.
func (w *liveWorld) close() {
	close(w.probeStop)
	w.probeWG.Wait()
	if w.d != nil {
		w.d.Stop()
	}
	for _, p := range w.paths {
		p.Close()
	}
	// Senders are closed; let datagrams already in flight reach the
	// relays before they shut down, as a deployment drains a link before
	// removing its forwarder.
	time.Sleep(50 * time.Millisecond)
	for _, r := range w.relays {
		r.Close()
	}
	if w.ln != nil {
		w.ln.Close()
	}
	w.sink.mu.Lock()
	conns := append([]*transport.RUDPConn(nil), w.sink.conns...)
	w.sink.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	w.sink.wg.Wait()
}

func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// liveSchedule is each stream's constant-bit-rate offer count per tick,
// as iqpathsd's source offers (live.CBR), from a seeded phase. Every
// scheduling window carries exactly perWindow packets: the window's
// count is a difference of floors whose arguments differ by perWindow.
func liveSchedule(sc liveScenario, seed int64, totalTicks int) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	wt := float64(sc.twSec/sc.tickSec + 0.5)
	out := make([][]int32, len(sc.streams))
	for i, s := range sc.streams {
		out[i] = make([]int32, totalTicks)
		perTick := float64(s.perWindow) / float64(int(wt))
		phase := rng.Float64()
		for k := range out[i] {
			out[i][k] = int32(math.Floor(phase+float64(k+1)*perTick) - math.Floor(phase+float64(k)*perTick))
		}
	}
	return out
}

func runLive(sc liveScenario, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	epoch := time.Now()
	wt := int(sc.twSec/sc.tickSec + 0.5)
	measWindows := int(float64(cfg.seconds) / sc.twSec)
	totalTicks := (sc.warmWindows + measWindows) * wt
	warmTicks := sc.warmWindows * wt
	sched := liveSchedule(sc, cfg.seed, totalTicks)

	// Set up several times and report the median; only the last world
	// carries traffic.
	capHint := 0
	for _, s := range sc.streams {
		if n := s.perWindow * (totalTicks/wt + 1); n > capHint {
			capHint = n
		}
	}
	var setups []float64
	var w *liveWorld
	for r := 0; r < setupRepsOverlay; r++ {
		hint := 0
		if r == setupRepsOverlay-1 {
			hint = capHint
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		world, err := setupLive(sc, cfg, hint, epoch)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			world.close()
			return nil, err
		}
		if r < setupRepsOverlay-1 {
			world.close()
		} else {
			w = world
		}
	}
	out.e2e["setup_s"] = median(setups)
	// Start traffic from a collected heap, not the discarded set-ups'.
	runtime.GC()

	var loopRec *recorder
	if cfg.trace {
		loopRec = w.tpaths[0].rec
	}
	offered := make([]int, len(sc.streams))
	warmOffered := make([]int, len(sc.streams))
	dues := make([][]int64, len(sc.streams))
	for i := range dues {
		dues[i] = make([]int64, 0, sc.streams[i].perWindow*(totalTicks/wt))
	}
	bits := make([]float64, len(sc.streams))
	for i, s := range sc.streams {
		bits[i] = s.spec.PacketBits
	}

	tickDur := time.Duration(sc.tickSec * float64(time.Second))
	var lateTicks, lagResyncs, offerN int
	var lateMs, inflight, queued []float64
	var m meter
	var measStart, measEnd int64
	var marks []sliceMark
	ticksPerSec := int(1/sc.tickSec + 0.5)
	// Start the schedule on one of the driver's window boundaries, so
	// each schedule window is exactly one driver (and sink) window.
	for w.d.Tick()%int64(wt) != 0 {
		w.d.Step()
		time.Sleep(tickDur)
	}
	start := time.Now().Add(tickDur)
	for k := 0; k < totalTicks; k++ {
		if k == warmTicks {
			copy(warmOffered, offered)
			m = startMeter()
			measStart = time.Now().UnixNano()
		}
		if k >= warmTicks && (k-warmTicks)%ticksPerSec == 0 {
			marks = append(marks, markNow(float64(w.sink.total())))
		}
		due := start.Add(time.Duration(k) * tickDur)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		if k >= warmTicks {
			if late > tickDur {
				lateTicks++
			}
			if late > 50*tickDur { // ShardedDriver.Run's catch-up bound
				lagResyncs++
			}
			if cfg.trace {
				lateMs = append(lateMs, float64(late)/1e6)
			}
		}
		dueStamp := due.UnixNano()
		for i, id := range w.ids {
			for n := sched[i][k]; n > 0; n-- {
				offerN++
				var sid int32 = -1
				if offerN%8 == 0 {
					sid = loopRec.begin("live.offer")
				}
				w.d.Offer(id, bits[i])
				loopRec.end(sid)
				dues[i] = append(dues[i], dueStamp)
				offered[i]++
			}
		}
		sid := loopRec.begin("live.step")
		w.d.Step()
		loopRec.end(sid)
		if cfg.trace && k >= warmTicks {
			for j, c := range w.conns {
				inflight = append(inflight, float64(c.InFlight()))
				queued = append(queued, float64(w.paths[j].QueuedPackets()))
			}
		}
	}
	measEnd = time.Now().UnixNano()
	c := m.stop()
	marks = append(marks, markNow(float64(w.sink.total())))
	measDue := start.Add(time.Duration(warmTicks) * tickDur).UnixNano()

	// Drain: keep ticking without offers until every backlog is empty and
	// every packet handed to a path has reached the sink.
	sh := w.d.Plane().Shard(0)
	sent := func() []int {
		st := w.d.SchedStats()
		o := make([]int, len(w.ids))
		for i, id := range w.ids {
			ps := st.PerStream[id]
			o[i] = int(ps.Scheduled + ps.OtherPath + ps.Unscheduled)
		}
		return o
	}
	// A reliable path that backed its RTO off during a host stall can
	// take seconds to recover; only a path that stays stuck past this
	// deadline leaves packets undelivered.
	drainDeadline := time.Now().Add(20 * time.Second)
	for {
		w.d.Step()
		time.Sleep(tickDur)
		idle := true
		s := sent()
		got := w.sink.counts()
		for i, id := range w.ids {
			local, _ := sh.LocalIndex(id)
			if sh.Stream(local).Len() > 0 || got[i] < s[i] {
				idle = false
			}
		}
		if idle || time.Now().After(drainDeadline) {
			break
		}
	}
	time.Sleep(time.Duration(sc.twSec*float64(time.Second)) + time.Duration(sc.graceNanos))
	reports := w.sink.acct.Reports(w.clock.Stamp())

	// Everything below reads state the tick loop no longer touches.
	st := w.d.SchedStats()
	sentPer := sent()
	w.sink.mu.Lock()
	arrivals := w.sink.arrivals
	seqFault := w.sink.seqFault
	w.sink.mu.Unlock()
	mapping := sh.Scheduler().Mapping()
	drops := w.reg.WithLabels("shard", "0").Counter("iqpaths_shard_offer_drops_total", "").Value()

	totalOffered, totalArrived, refused := 0, 0, 0
	// Guaranteed-stream delays, bucketed by the one-second slice of the
	// measured phase their packet was due in.
	guarDelays := make([][]float64, (totalTicks-warmTicks+ticksPerSec-1)/ticksPerSec)
	guaranteed, admitted := 0, 0
	var measBits float64
	for i, id := range w.ids {
		local, _ := sh.LocalIndex(id)
		str := sh.Stream(local)
		totalOffered += offered[i]
		totalArrived += len(arrivals[i])
		refused += int(str.Dropped)
		out.check(offered[i] == sentPer[i]+int(str.Dropped)+str.Len(),
			"%s: offered %d != sent %d + refused %d + backlog %d", sc.streams[i].spec.Name, offered[i], sentPer[i], str.Dropped, str.Len())
		out.check(len(arrivals[i]) == sentPer[i],
			"%s: %d packets sent, %d arrived at the sink", sc.streams[i].spec.Name, sentPer[i], len(arrivals[i]))
		for _, a := range arrivals[i] {
			if a >= measStart && a < measEnd {
				measBits += bits[i]
			}
		}
		if sc.streams[i].guaranteed() {
			guaranteed++
			if local < len(mapping.Rejected) && !mapping.Rejected[local] {
				admitted++
			}
			for k := warmOffered[i]; k < offered[i] && k < len(arrivals[i]); k++ {
				sl := int((dues[i][k] - measDue) / 1e9)
				guarDelays[sl] = append(guarDelays[sl], float64(arrivals[i][k]-dues[i][k])/1e6)
			}
		}
	}
	out.check(uint64(refused) == drops, "stream refusals %d != shard offer-drop counter %d", refused, drops)
	out.check(seqFault == 0, "%d data messages arrived out of sequence or twice", seqFault)

	var windows, violated int
	for _, r := range reports {
		if r.QuotaPackets > 0 {
			windows += r.Windows
			violated += r.Violated
		}
	}
	out.check(windows > 0, "no guaranteed window closed")
	out.check(samples(guarDelays) >= 1000, "only %d delay samples", samples(guarDelays))

	measSec := float64(measEnd-measStart) / 1e9
	out.attempted = totalOffered
	out.e2e["goodput_mbps"] = measBits / measSec / 1e6
	out.e2e["hit_frac"] = 1 - frac(float64(violated), float64(windows))
	out.e2e["delay_p50_ms"] = sliceQuantile(guarDelays, 0.5, quiet(marks))
	out.e2e["delay_p99_ms"] = sliceQuantile(guarDelays, 0.99, quiet(marks))
	out.e2e["delivered_frac"] = frac(float64(totalArrived), float64(totalOffered))
	out.e2e["ontime_frac"] = 1 - frac(float64(lateTicks), float64(totalTicks-warmTicks))
	out.e2e["cpu_us_per_op"], out.e2e["allocs_per_op"] = perOp(marks)
	out.e2e["admit_frac"] = frac(float64(admitted), float64(guaranteed))

	w.close()
	// Socket reader goroutines return their receive buffers as they
	// exit, after Close has returned; give them a moment to finish.
	_ = waitFor(2*time.Second, func() bool {
		return transport.WireOutstanding() == 0 && simnet.PoolOutstanding() == 0
	})
	out.check(transport.WireOutstanding() == 0, "%d wire buffers outstanding after teardown", transport.WireOutstanding())
	out.check(simnet.PoolOutstanding() == 0, "%d packets outstanding after teardown", simnet.PoolOutstanding())

	// Per-layer figures, from the traced run's spans and the program's
	// own counters. Taking each writer's lock first orders its spans
	// before the read.
	var calls, msgs int
	for _, tc := range w.tconns {
		c, m := tc.counts()
		calls += c
		msgs += m
	}
	ls := aggregate(append(append([]*recorder{loopRec}, w.writerRecs...), append(w.probeRecs, w.sink.recs...)...)...)
	L := out.layer
	L["gen.cpu_frac"] = c.cpuFrac()
	out.stealFrac = stealShare(marks, c.wall)
	L["live.step_us_p50"] = ls.p("live.step", 0.5, time.Microsecond)
	L["live.step_us_p99"] = ls.p("live.step", 0.99, time.Microsecond)
	L["live.step_self_us_p50"] = ls.selfP("live.step", 0.5, time.Microsecond)
	L["live.offer_ns_p50"] = ls.p("live.offer", 0.5, time.Nanosecond)
	L["live.offer_refused_frac"] = frac(float64(refused), float64(totalOffered))
	L["live.tick_late_ms_p99"] = quantile(lateMs, 0.99)
	L["live.lag_resyncs"] = float64(lagResyncs)
	L["live.account_observe_ns_p50"] = ls.p("live.account_observe", 0.5, time.Nanosecond)
	L["live.probe_us_p50"] = ls.p("live.probe", 0.5, time.Microsecond)
	var trains, replies uint64
	for _, p := range w.probers {
		s, r := p.Trains()
		trains += s
		replies += r
	}
	L["live.train_reply_frac"] = frac(float64(replies), float64(trains))
	var sends, blocked int
	for _, p := range w.tpaths {
		sends += p.sends
		blocked += p.blocked
	}

	L["transport.path_send_ns_p50"] = ls.p("transport.path_send", 0.5, time.Nanosecond)
	L["transport.path_blocked_frac"] = frac(float64(blocked), float64(sends))
	L["transport.conn_send_us_p50"] = ls.p("transport.conn_send", 0.5, time.Microsecond)
	L["transport.msgs_per_send"] = frac(float64(msgs), float64(calls))
	var retx, seqs uint64
	for _, cn := range w.conns {
		retx += cn.Retransmits()
		seqs += cn.SentSeq()
	}
	L["transport.retx_frac"] = frac(float64(retx), float64(seqs))
	L["transport.inflight_p99"] = quantile(inflight, 0.99)
	L["transport.path_queued_p99"] = quantile(queued, 0.99)
	var fwd, dropped, lost float64
	for _, r := range w.relays {
		s := r.Stats()
		fwd += float64(s.Forwarded)
		dropped += float64(s.Dropped)
		lost += float64(s.Lost)
	}
	L["testbed.drop_frac"] = frac(dropped, fwd+dropped+lost)
	L["testbed.loss_frac"] = frac(lost, fwd+dropped+lost)
	L["monitor.warm_s"] = w.warmSec
	pgosLayer(L, st, float64(totalTicks)/float64(wt))
	traceLayer(L, out, ls)
	return out, nil
}
