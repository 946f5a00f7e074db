package experiment

import (
	"fmt"

	"iqpaths/internal/control"
	"iqpaths/internal/emulab"
	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// churnTickSec is the BuildN testbed tick the churn timeline is scripted
// against.
const churnTickSec = 0.01

// ChurnTimeline records the scripted membership churn in seconds of
// virtual time from run start (warmup included).
type ChurnTimeline struct {
	// FailNode names the overlay router that fails and rejoins.
	FailNode string
	// FailSec/RejoinSec bound the outage.
	FailSec, RejoinSec float64
	// GossipSec is the link-state dissemination round period.
	GossipSec float64
	// DetectSec is the failure-detection delay before the failed node's
	// neighbors witness the change.
	DetectSec float64
}

// ChurnRun is one routing mode's behaviour under the shared churn script.
type ChurnRun struct {
	// Mode is "static" or "control".
	Mode string
	// ControlEvents counts the membership events that played (identical
	// across modes by construction).
	ControlEvents uint64
	// Reroutes counts control-plane path-set rebuilds (0 for static).
	Reroutes int
	// ConvergeTicks/ConvergeSec report the slowest completed dissemination
	// (change applied → every up view caught up); −1/−0.01 when none.
	ConvergeTicks int64
	ConvergeSec   float64
	// Remaps counts PGOS resource-mapping rebuilds.
	Remaps uint64
	// Streams are the realised guarantees (same rows as the fault figure).
	Streams []FaultStreamRow
}

// ChurnResult compares static routing against control-plane rerouting
// under one scripted churn schedule, plus the admission-control decisions
// taken on the control run.
type ChurnResult struct {
	Timeline ChurnTimeline
	// Critical names the guaranteed stream whose violated-window fraction
	// is the headline comparison.
	Critical string
	Static   ChurnRun
	Control  ChurnRun
	// Admission records the scripted post-warmup admission probes on the
	// control run: the running guaranteed stream's own spec (admitted)
	// and an oversized one (rejected, with the best-feasible-spec upcall).
	Admission []control.Decision
}

// churnStreams returns the churn workload specs: one guaranteed stream
// sized to need a healthy first path (or a two-path split once it fails)
// and one best-effort background stream.
func churnStreams() []stream.Spec {
	return []stream.Spec{
		{Name: "Gold", Kind: stream.Probabilistic, RequiredMbps: 50, Probability: 0.9},
		{Name: "BG", Kind: stream.BestEffort},
	}
}

// churnBGMbps is the best-effort background offered load.
const churnBGMbps = 20

// RunChurn plays one scripted churn schedule — the best path's router
// fails mid-run and later rejoins — against the same workload twice: once
// with routing frozen at the initial path set (static) and once with the
// control plane rerouting on link-state convergence. Both modes run PGOS;
// the comparison isolates the control plane's contribution, not the
// scheduler's.
func RunChurn(cfg RunConfig) (*ChurnResult, error) {
	cfg.fillDefaults()
	tl := ChurnTimeline{
		FailNode:  "R0",
		FailSec:   cfg.WarmupSec + 0.25*cfg.DurationSec,
		RejoinSec: cfg.WarmupSec + 0.65*cfg.DurationSec,
		GossipSec: 0.1,
		DetectSec: 0.2,
	}
	out := &ChurnResult{Timeline: tl, Critical: "Gold"}
	st, _, err := churnRun(cfg, tl, true)
	if err != nil {
		return nil, fmt.Errorf("experiment: churn static run: %w", err)
	}
	ct, adm, err := churnRun(cfg, tl, false)
	if err != nil {
		return nil, fmt.Errorf("experiment: churn control run: %w", err)
	}
	out.Static, out.Control, out.Admission = st, ct, adm
	return out, nil
}

func churnRun(cfg RunConfig, tl ChurnTimeline, static bool) (ChurnRun, []control.Decision, error) {
	mode := "control"
	if static {
		mode = "static"
	}
	tb := emulab.BuildN(emulab.Config{Seed: cfg.Seed}, 3)
	net := tb.Net
	tick := func(sec float64) int64 { return int64(sec / churnTickSec) }

	// Overlay: S fans to three routers R0..R2 that all reach C; branch i
	// is backed by the testbed's Path{i} (cross traffic grows heavier with
	// i, so the initial 2-path set is {Path0, Path1} and Path2 is the
	// reroute spare).
	g := overlay.NewGraph()
	src := g.AddNode("N-1", overlay.Server)
	var routers [3]overlay.NodeID
	for i := range routers {
		routers[i] = g.AddNode(fmt.Sprintf("R%d", i), overlay.Router)
	}
	dst := g.AddNode("N-6", overlay.Client)
	for _, r := range routers {
		g.AddDuplex(src, r)
		g.AddDuplex(r, dst)
	}

	// All three paths are monitored continuously (§4's always-on
	// statistical monitoring), so a reroute lands on a warm distribution.
	mons, samplers := pathMonitors(tb.Paths)

	// Data plane: overlay link state maps onto the testbed hops — the
	// S↔Ri pair onto the ingress hop, Ri↔C onto the bottleneck and egress
	// hops (the router's own chain).
	linksFor := map[[2]overlay.NodeID][]*simnet.Link{}
	for i, r := range routers {
		ingress := []*simnet.Link{net.Link(fmt.Sprintf("N-1:R%d", i))}
		egress := []*simnet.Link{
			net.Link(fmt.Sprintf("R%d:R%d'", i, i)),
			net.Link(fmt.Sprintf("R%d':N-6", i)),
		}
		linksFor[[2]overlay.NodeID{src, r}] = ingress
		linksFor[[2]overlay.NodeID{r, src}] = ingress
		linksFor[[2]overlay.NodeID{r, dst}] = egress
		linksFor[[2]overlay.NodeID{dst, r}] = egress
	}
	dataPlane := control.DataPlaneFunc(func(a, b overlay.NodeID, up bool) {
		for _, l := range linksFor[[2]overlay.NodeID{a, b}] {
			l.SetDown(!up)
		}
	})

	routerOf := map[overlay.NodeID]int{}
	for i, r := range routers {
		routerOf[r] = i
	}
	factory := control.PathFactoryFunc(func(route []overlay.NodeID) (sched.PathService, *monitor.PathMonitor, error) {
		if len(route) != 3 {
			return nil, nil, fmt.Errorf("churn: unexpected route %v", route)
		}
		i, ok := routerOf[route[1]]
		if !ok {
			return nil, nil, fmt.Errorf("churn: route %v crosses no known router", route)
		}
		return tb.Paths[i], mons[i], nil
	})

	specs := churnStreams()
	streams := make([]*stream.Stream, len(specs))
	for i, sp := range specs {
		streams[i] = stream.New(i, sp)
	}

	reg, tracer, acct := newRunTelemetry(net, streams, cfg.TwSec)

	adm := control.NewAdmission(control.AdmissionOptions{TwSec: cfg.TwSec}, nil)
	adm.SetTelemetry(reg, tracer)

	var scheduler *pgos.Scheduler
	schedule := control.FailRecover(routers[0], tick(tl.FailSec), tick(tl.RejoinSec), src, dst)
	ctl, err := control.New(control.Config{
		Graph: g, Src: src, Dst: dst,
		MaxPaths:            2,
		GossipIntervalTicks: tick(tl.GossipSec),
		FailureDetectTicks:  tick(tl.DetectSec),
		Static:              static,
		Factory:             factory,
		DataPlane:           dataPlane,
		Admission:           adm,
		Telemetry:           reg,
		Tracer:              tracer,
		Rebind: func(paths []sched.PathService, pmons []*monitor.PathMonitor) {
			if scheduler != nil {
				scheduler.SetPaths(paths, pmons)
				scheduler.Invalidate()
			}
		},
	}, schedule)
	if err != nil {
		return ChurnRun{}, nil, err
	}

	paceLimit := cfg.PaceLimit
	if paceLimit <= 0 {
		paceLimit = 170
	}
	built, err := sched.Build(AlgPGOS, sched.BuildConfig{
		Streams:     streams,
		Paths:       ctl.Paths(),
		PaceLimit:   paceLimit,
		TickSeconds: net.TickSeconds(),
		TwSec:       cfg.TwSec,
		Monitors:    ctl.Monitors(),
		Telemetry:   reg,
		OnRemap: func(latencySec float64, committed bool) {
			acct.ObserveRemap(latencySec, committed)
		},
	})
	if err != nil {
		return ChurnRun{}, nil, err
	}
	scheduler = built.(*pgos.Scheduler)

	goldSrc := stream.NewRateSource(net, streams[0], specs[0].RequiredMbps)
	bgSrc := stream.NewRateSource(net, streams[1], churnBGMbps)

	tickSec := net.TickSeconds()
	var decisions []control.Decision
	h := &Harness{
		Net:         net,
		Scheduler:   scheduler,
		Paths:       tb.Paths,
		Samplers:    samplers,
		Accountant:  acct,
		WarmupSec:   cfg.WarmupSec,
		DurationSec: cfg.DurationSec,
		TwSec:       cfg.TwSec,
		PreTick: func(t int64) {
			ctl.Tick(t)
			goldSrc.Tick()
			bgSrc.Tick()
		},
		OnDeliver: accountDeliveries(mons, acct, len(streams), tickSec, nil),
	}
	h.PostTick = func(t int64) {
		if t == h.WarmupTicks() {
			// Post-warmup admission probes: the running guaranteed stream's
			// own spec must be feasible on the warm paths; an oversized ask
			// must be deterministically rejected with the best-feasible-spec
			// upcall.
			decisions = append(decisions, adm.Admit(specs[0]))
			decisions = append(decisions, adm.Admit(stream.Spec{
				Name: "Whale", Kind: stream.Probabilistic,
				RequiredMbps: 250, Probability: 0.99,
			}))
		}
	}
	if err := h.Run(); err != nil {
		return ChurnRun{}, nil, err
	}

	run := ChurnRun{
		Mode:          mode,
		Reroutes:      ctl.Reroutes(),
		ConvergeTicks: ctl.MaxConvergenceTicks(),
		ConvergeSec:   float64(ctl.MaxConvergenceTicks()) * tickSec,
		Remaps:        scheduler.Stats().Remaps,
	}
	if ctl.Done() {
		run.ControlEvents = uint64(len(schedule))
	}
	run.Streams = faultStreamRows(acct.Accounts())
	return run, decisions, nil
}
