// Live node-agent roles: the pieces that turn iqpathsd into the Fig. 8
// localhost deployment. A `-role relay` daemon is one shaped link; a
// `-role source` daemon runs the live PGOS driver over RUDP paths with
// probe-train monitoring; the sink role (main.go) gains wire-deadline
// accounting, probe responders, and the /control/linkstate exchange.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"iqpaths/internal/bwest"
	"iqpaths/internal/live"
	"iqpaths/internal/live/testbed"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/shard"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
	"iqpaths/internal/transport"
)

// liveSink is the sink-side live state: on-time accounting keyed by wire
// deadlines, probe-train responders per connection, and the node's
// link-state view.
type liveSink struct {
	clock live.Clock
	acct  *live.Account
	links *live.LinkStateTable
}

func newLiveSink() *liveSink {
	return &liveSink{
		clock: live.NewWallClock(),
		acct:  live.NewAccount(nil),
		links: live.NewLinkStateTable(),
	}
}

// bindConn attaches a probe-train responder to RUDP connections (TCP
// connections carry no trains).
func (s *liveSink) bindConn(conn transport.Conn) {
	if rc, ok := conn.(*transport.RUDPConn); ok {
		live.Bind(rc, nil, live.NewResponder(s.clock, rc))
	}
}

// observeData judges one data arrival against its wire deadline.
func (s *liveSink) observeData(m *transport.Message) {
	if s.acct.Registered(m.Stream) && m.Frame != 0 {
		s.acct.Observe(m.Stream, int64(m.Frame), s.clock.Stamp())
	}
}

// handleControl consumes one control frame: Hello registers a contract,
// LinkState merges into the table.
func (s *liveSink) handleControl(m *transport.Message) {
	v, err := live.ParseFrame(m.Payload)
	if err != nil {
		return // not a live control frame; other subsystems own it
	}
	switch f := v.(type) {
	case *live.Hello:
		log.Printf("live: contract for stream %d (%s): %d pkts / %s window",
			f.Stream, f.Name, f.QuotaPackets, time.Duration(f.WindowNanos))
		s.acct.Register(live.Contract{
			Stream:       f.Stream,
			Name:         f.Name,
			QuotaPackets: int(f.QuotaPackets),
			WindowNanos:  f.WindowNanos,
			GraceNanos:   f.GraceNanos,
			SkipWindows:  int(f.SkipWindows),
		})
	case *live.LinkState:
		s.links.Apply(*f)
	}
}

// register serves the live endpoints: GET /live/accounts returns the
// per-stream on-time reports; /control/linkstate accepts POSTed
// length-prefixed LinkState frames and answers GET with the JSON table.
func (s *liveSink) register(mux *http.ServeMux) {
	mux.HandleFunc("/live/accounts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.acct.Reports(s.clock.Stamp()))
	})
	mux.HandleFunc("/control/linkstate", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			applied := 0
			for {
				frame, err := live.ReadFrame(r.Body)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				v, err := live.ParseFrame(frame)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if u, ok := v.(*live.LinkState); ok && s.links.Apply(*u) {
					applied++
				}
			}
			fmt.Fprintf(w, "applied %d\n", applied)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.links.Snapshot())
		}
	})
}

// runRelay is `-role relay`: one testbed link as its own process.
func runRelay(ctx context.Context, listen, target, shapeJSON string, seed int64) error {
	var shape testbed.LinkShape
	if shapeJSON != "" {
		if err := json.Unmarshal([]byte(shapeJSON), &shape); err != nil {
			return fmt.Errorf("relay: bad -shape: %w", err)
		}
	}
	if shape.CapacityMbps <= 0 {
		return fmt.Errorf("relay: -shape must set CapacityMbps")
	}
	r, err := testbed.NewRelay(listen, target, shape, seed)
	if err != nil {
		return err
	}
	log.Printf("relay: %s → %s at %.1f Mbps capacity (cross %.1f±%.1f, loss %.3f)",
		r.Addr(), target, shape.CapacityMbps, shape.CrossMbps, shape.CrossAmpMbps, shape.LossProb)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			log.Print("relay: shutting down")
			return r.Close()
		case <-ticker.C:
			st := r.Stats()
			log.Printf("relay: forwarded=%d returned=%d dropped=%d lost=%d",
				st.Forwarded, st.Returned, st.Dropped, st.Lost)
		}
	}
}

// sourceConfig is the `-role source` parameterization.
type sourceConfig struct {
	node      string  // node name in link-state advertisements
	paths     string  // "name=addr,name=addr" overlay paths (via relays)
	rateMbps  float64 // stream offered load
	prob      float64 // guarantee probability; 0 runs best-effort
	windowSec float64
	tickSec   float64
	probeSec  float64
	planner   string // probe scheduling: "timer" | "rr" | "active"
	budget    int    // probe trains per round for rr/active (0 = default)
	report    string // sink HTTP base URL for link-state POSTs (optional)
	duration  time.Duration
	shards    int // scheduling domains; paths split round-robin (<1 = 1)
}

const packetBits = 12000

// pathSlot locates a global path inside its shard's domain.
type pathSlot struct{ shard, local int }

// sourcePlane is the source's scheduling state: the live driver, the
// global IDs of its per-shard streams, and each global path's slot.
type sourcePlane struct {
	d      *live.ShardedDriver
	ids    []int
	pathAt []pathSlot
	// warm gates the CBR offers until the CDF predictors can map.
	warm atomic.Bool
}

// newSourcePlane builds the source's live driver over cfg.shards
// scheduling domains. Paths split round-robin across shards (a path is
// paced by exactly one shard), the offered load splits into one stream
// per shard, and the driver's and every shard's scheduler metrics land in
// reg, the latter labeled shard="k".
func newSourcePlane(cfg sourceConfig, clock live.Clock, reg *telemetry.Registry,
	paths []sched.PathService, mons []*monitor.PathMonitor) *sourcePlane {
	domains := make([]live.ShardDomain, cfg.shards)
	sp := &sourcePlane{pathAt: make([]pathSlot, len(paths))}
	for j := range paths {
		k := j % cfg.shards
		sp.pathAt[j] = pathSlot{k, len(domains[k].Paths)}
		domains[k].Paths = append(domains[k].Paths, paths[j])
		domains[k].Mons = append(domains[k].Mons, mons[j])
	}
	perStream := cfg.rateMbps / float64(cfg.shards)
	cbrs := make([]*live.CBR, cfg.shards)
	sp.d = live.NewShardedDriver(live.ShardedConfig{
		Config: live.Config{
			TickSeconds: cfg.tickSec,
			TwSec:       cfg.windowSec,
			Clock:       clock,
			Telemetry:   reg,
			OnTick: func(int64) {
				if !sp.warm.Load() {
					return
				}
				for i, cbr := range cbrs {
					n := cbr.Packets(cfg.tickSec)
					for p := 0; p < n; p++ {
						sp.d.Offer(sp.ids[i], packetBits)
					}
				}
			},
		},
		// Least-loaded placement round-robins the streams so each shard
		// schedules exactly one.
		Placement: shard.LeastLoaded{},
	}, domains)
	for i := range cbrs {
		spec := stream.Spec{Name: fmt.Sprintf("live%d", i), Kind: stream.BestEffort, PacketBits: packetBits}
		if cfg.prob > 0 {
			spec.Kind = stream.Probabilistic
			spec.RequiredMbps = perStream
			spec.Probability = cfg.prob
		}
		cbrs[i] = &live.CBR{Mbps: perStream, PacketBits: packetBits}
		id, _ := sp.d.AddStream(spec)
		sp.ids = append(sp.ids, id)
	}
	return sp
}

// meanBandwidth returns global path j's mean available-bandwidth estimate.
func (sp *sourcePlane) meanBandwidth(j int) float64 {
	at := sp.pathAt[j]
	return sp.d.MeanBandwidth(at.shard, at.local)
}

// runSource is `-role source`: dial every overlay path, warm the CDF
// predictors from live probes, then drive the offered load through the
// live driver's PGOS plane as one CBR stream per shard.
func runSource(ctx context.Context, cfg sourceConfig) error {
	type pathSpec struct{ name, addr string }
	var specs []pathSpec
	for _, part := range strings.Split(cfg.paths, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return fmt.Errorf("source: -paths entry %q is not name=addr", part)
		}
		specs = append(specs, pathSpec{name, addr})
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.shards > len(specs) {
		return fmt.Errorf("source: -shards %d exceeds path count %d (each shard needs a path)", cfg.shards, len(specs))
	}
	switch cfg.planner {
	case "", "timer", "rr", "active":
	default:
		return fmt.Errorf("source: unknown -probe-planner %q (timer | rr | active)", cfg.planner)
	}

	clock := live.NewWallClock()
	conns := make([]*transport.RUDPConn, len(specs))
	paths := make([]sched.PathService, len(specs))
	mons := make([]*monitor.PathMonitor, len(specs))
	names := make([]string, len(specs))
	for j, ps := range specs {
		names[j] = ps.name
		conn, err := transport.DialRUDP(ps.addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("source: dial %s (%s): %w", ps.name, ps.addr, err)
		}
		defer conn.Close()
		conns[j] = conn
		p := transport.NewPath(j, ps.name, conn, 0)
		// The driver flushes paths after every dispatch round, so writes
		// can wait for the tick boundary and leave as one mmsg batch.
		p.SetTickPaced(true)
		defer p.Close()
		paths[j] = p
		mons[j] = monitor.New(ps.name, 64, 8)
		log.Printf("source: path %s via %s", ps.name, ps.addr)
	}

	sp := newSourcePlane(cfg, clock, telemetry.Default(), paths, mons)
	d := sp.d
	defer d.Stop()
	quota := int(cfg.rateMbps / float64(cfg.shards) * 1e6 * cfg.windowSec / packetBits)
	for i, id := range sp.ids {
		hello := live.MarshalHello(live.Hello{
			Stream:       uint32(id),
			Name:         fmt.Sprintf("live%d", i),
			QuotaPackets: uint32(quota),
			WindowNanos:  int64(cfg.windowSec * 1e9),
			GraceNanos:   int64(150 * time.Millisecond),
			SkipWindows:  3,
		})
		if err := conns[0].Send(&transport.Message{Kind: transport.KindControl, Seq: uint64(i + 1), Payload: hello}); err != nil {
			return fmt.Errorf("source: hello: %w", err)
		}
	}

	runCtx := ctx
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	startProbing(runCtx, cfg, clock, conns, sp)
	go d.Run(runCtx)
	if cfg.report != "" {
		go reportLinkState(runCtx, cfg, sp.meanBandwidth, names)
	}

	log.Printf("source: %d shard(s) over %d paths (%s)", cfg.shards, len(paths), strings.Join(names, " "))
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-runCtx.Done():
			st := d.SchedStats()
			log.Printf("source: done; scheduled=%d other-path=%d unscheduled=%d lag-resyncs=%d",
				st.ScheduledSent, st.OtherPathSent, st.UnscheduledSent, d.LagResyncs())
			for k, ss := range d.ShardStats() {
				log.Printf("source: shard %d: scheduled=%d other-path=%d unscheduled=%d remaps=%d",
					k, ss.ScheduledSent, ss.OtherPathSent, ss.UnscheduledSent, ss.Remaps)
			}
			return nil
		case <-ticker.C:
			if !sp.warm.Load() {
				if d.Warm() {
					sp.warm.Store(true)
					log.Printf("source: predictors warm (%s): starting %.1f Mbps across %d shard streams",
						monSummary(sp, names), cfg.rateMbps, cfg.shards)
				}
				continue
			}
			st := d.SchedStats()
			log.Printf("source: tick=%d sent=%d", d.Tick(),
				st.ScheduledSent+st.OtherPathSent+st.UnscheduledSent)
		}
	}
}

// startProbing wires probe trains, routing each path's bandwidth samples
// to its (shard, local) slot. "timer" is the historical deployment: one
// Run loop per path, every path trained every interval. "rr" and
// "active" replace the per-path timers with one budgeted ProberSet
// planning loop over a bwest.Estimator that also absorbs every probe and
// passive RTT/loss sample: "rr" plans with its round-robin sweep,
// "active" with its information-gain planner, which concentrates the
// budget on the paths with the most posterior uncertainty. The planner
// name was validated before any path was dialed.
func startProbing(ctx context.Context, cfg sourceConfig, clock live.Clock,
	conns []*transport.RUDPConn, sp *sourcePlane) {
	budget := cfg.budget
	if budget <= 0 {
		budget = max(1, len(conns)/2)
	}
	var est *bwest.Estimator
	if cfg.planner == "rr" || cfg.planner == "active" {
		var planner bwest.Planner // nil selects the information-gain planner
		if cfg.planner == "rr" {
			planner = bwest.NewRoundRobinPlanner()
		}
		est = bwest.NewEstimator(bwest.Config{
			Paths:     len(conns),
			Budget:    budget,
			Planner:   planner,
			Telemetry: telemetry.Default(),
		})
	}
	probers := make([]*live.Prober, len(conns))
	for j, conn := range conns {
		p := live.NewProber(live.ProberConfig{IntervalSec: cfg.probeSec}, clock, conn)
		at := sp.pathAt[j]
		p.OnBandwidth = func(mbps float64) {
			sp.d.ObserveBandwidth(at.shard, at.local, mbps)
			if est != nil {
				est.ObserveProbe(j, mbps)
			}
		}
		if est != nil {
			p.OnRTT = func(sec float64) { est.ObserveRTT(j, sec) }
			p.OnLoss = func(rate float64) { est.ObserveLoss(j, rate, sp.meanBandwidth(j)) }
		}
		live.Bind(conn, p, nil)
		probers[j] = p
	}
	if est == nil {
		for _, p := range probers {
			go p.Run(ctx)
		}
		return
	}
	ps := live.NewProberSet(live.ProberSetConfig{IntervalSec: cfg.probeSec, Budget: budget},
		clock, probers, est)
	go ps.Run(ctx)
	log.Printf("source: %s probe planner, %d trains/round over %d paths", cfg.planner, budget, len(conns))
}

func monSummary(sp *sourcePlane, names []string) string {
	parts := make([]string, len(names))
	for j, n := range names {
		parts[j] = fmt.Sprintf("%s≈%.1fMbps", n, sp.meanBandwidth(j))
	}
	return strings.Join(parts, " ")
}

// reportLinkState POSTs this node's measured per-path availability to the
// sink's /control/linkstate as length-prefixed frames, once per second
// with monotonically increasing versions. bw maps a global path index to
// its mean available-bandwidth estimate.
func reportLinkState(ctx context.Context, cfg sourceConfig, bw func(int) float64, names []string) {
	url := strings.TrimSuffix(cfg.report, "/") + "/control/linkstate"
	version := uint64(0)
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		version++
		var body bytes.Buffer
		for j, name := range names {
			u := live.LinkState{Node: cfg.node, Link: name, Version: version, Up: true, AvailMbps: bw(j)}
			if err := live.WriteFrame(&body, live.MarshalLinkState(u)); err != nil {
				return
			}
		}
		resp, err := http.Post(url, "application/octet-stream", &body)
		if err != nil {
			continue // sink HTTP not up yet; try again next tick
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
