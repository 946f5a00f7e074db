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
	"iqpaths/internal/telemetry"
)

// ChurnTimeline records the scripted membership churn in seconds of
// virtual time from run start (warmup included).
type ChurnTimeline struct {
	// FailSec/RejoinSec bound router R0's outage.
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
	// ConvergeTicks reports the slowest completed dissemination (change
	// applied → every up view caught up); −1 when none.
	ConvergeTicks int64
	// Remaps counts PGOS resource-mapping rebuilds.
	Remaps uint64
	// Accounts are the realised guarantees (same rows as the fault figure).
	Accounts []telemetry.StreamAccount
	// decisions are the run's post-warmup admission probes.
	decisions []control.Decision
}

// ChurnResult compares static routing against control-plane rerouting
// under one scripted churn schedule, plus the admission-control decisions
// taken on the control run.
type ChurnResult struct {
	Static, Control ChurnRun
	// Admission records the scripted post-warmup admission probes on the
	// control run: the running guaranteed stream's own spec (admitted)
	// and an oversized one (rejected, with the best-feasible-spec upcall).
	Admission []control.Decision
}

// churnScenario runs a guaranteed stream, sized to need a healthy first
// path (or a two-path split once it fails), beside a best-effort one over
// the 3-branch testbed. Its figure plays the churn — the best path's
// router fails mid-run and later rejoins — under PGOS with routing frozen
// at the initial path set and with the control plane rerouting, so the
// comparison isolates the control plane's contribution.
var churnScenario = Scenario{Topology: multiPath(3), Workload: Workload{PaceLimit: bulkPace,
	New: func(h *Harness, _ RunConfig) workload {
		var w sources
		for i, spec := range churnStreams {
			st := stream.New(i, spec)
			w.add(st, stream.NewRateSource(h.Net, st, churnMbps[i]))
		}
		return w
	}}}

// churnStreams are the churn workload's streams, offered at churnMbps.
var (
	churnStreams = []stream.Spec{
		{Name: "Gold", Kind: stream.Probabilistic, RequiredMbps: 50, Probability: 0.9},
		{Name: "BG", Kind: stream.BestEffort},
	}
	churnMbps = []float64{50, 20}
)

// churnTimeline scripts the churn for cfg's warmup W and duration D: R0
// fails at W+0.25D and rejoins at W+0.65D.
func churnTimeline(cfg RunConfig) ChurnTimeline {
	cfg.fillDefaults()
	return ChurnTimeline{
		FailSec:   cfg.WarmupSec + 0.25*cfg.DurationSec,
		RejoinSec: cfg.WarmupSec + 0.65*cfg.DurationSec,
		GossipSec: 0.1,
		DetectSec: 0.2,
	}
}

// controlPlane is a churn run's controller, which plays the churn script
// and routes the scheduler's paths, and the admission it probes once warm.
type controlPlane struct {
	mode      string
	ctl       *control.Controller
	adm       *control.Admission
	events    int
	decisions []control.Decision
}

// newControlPlane builds a mode ("static" or "control") run's control
// plane over h's testbed paths; a reroute rebinds h.Scheduler.
func newControlPlane(mode string, cfg RunConfig, h *Harness, paths []*simnet.Path, mons []*monitor.PathMonitor,
	reg *telemetry.Registry, tracer *telemetry.Tracer) (*controlPlane, error) {
	tl, net := churnTimeline(cfg), h.Net
	tick := func(sec float64) int64 { return int64(sec / emulab.TickSeconds) }

	// Overlay: S fans to routers R0..R2 that all reach C; branch i is the
	// testbed's Path{i} (cross traffic grows heavier with i, so the initial
	// 2-path set is {Path0, Path1} and Path2 is the reroute spare). All
	// three paths are monitored (§4), so a reroute lands on a warm
	// distribution. Overlay link state maps onto the testbed hops: S↔Ri
	// onto the ingress hop, Ri↔C onto the bottleneck and egress hops.
	g := overlay.NewGraph()
	src := g.AddNode("N-1", overlay.Server)
	var routers [3]overlay.NodeID
	for i := range routers {
		routers[i] = g.AddNode(fmt.Sprintf("R%d", i), overlay.Router)
	}
	dst := g.AddNode("N-6", overlay.Client)
	linksFor := map[[2]overlay.NodeID][]*simnet.Link{}
	routerOf := map[overlay.NodeID]int{}
	for i, r := range routers {
		g.AddDuplex(src, r)
		g.AddDuplex(r, dst)
		in := []*simnet.Link{net.Link(fmt.Sprintf("N-1:R%d", i))}
		out := []*simnet.Link{net.Link(fmt.Sprintf("R%d:R%d'", i, i)), net.Link(fmt.Sprintf("R%d':N-6", i))}
		linksFor[[2]overlay.NodeID{src, r}], linksFor[[2]overlay.NodeID{r, src}] = in, in
		linksFor[[2]overlay.NodeID{r, dst}], linksFor[[2]overlay.NodeID{dst, r}] = out, out
		routerOf[r] = i
	}
	dataPlane := control.DataPlaneFunc(func(a, b overlay.NodeID, up bool) {
		for _, l := range linksFor[[2]overlay.NodeID{a, b}] {
			l.SetDown(!up)
		}
	})
	factory := control.PathFactoryFunc(func(route []overlay.NodeID) (sched.PathService, *monitor.PathMonitor, error) {
		if len(route) != 3 {
			return nil, nil, fmt.Errorf("churn: unexpected route %v", route)
		}
		i, ok := routerOf[route[1]]
		if !ok {
			return nil, nil, fmt.Errorf("churn: route %v crosses no known router", route)
		}
		return paths[i], mons[i], nil
	})

	cp := &controlPlane{mode: mode, adm: control.NewAdmission(control.AdmissionOptions{TwSec: cfg.TwSec}, nil)}
	cp.adm.SetTelemetry(reg, tracer)
	schedule := control.FailRecover(routers[0], tick(tl.FailSec), tick(tl.RejoinSec), src, dst)
	cp.events = len(schedule)
	var err error
	cp.ctl, err = control.New(control.Config{
		Graph: g, Src: src, Dst: dst,
		MaxPaths:            2,
		GossipIntervalTicks: tick(tl.GossipSec),
		FailureDetectTicks:  tick(tl.DetectSec),
		Static:              mode == "static",
		Factory:             factory,
		DataPlane:           dataPlane,
		Admission:           cp.adm,
		Telemetry:           reg,
		Tracer:              tracer,
		Rebind: func(paths []sched.PathService, pmons []*monitor.PathMonitor) {
			if s, ok := h.Scheduler.(*pgos.Scheduler); ok {
				s.SetPaths(paths, pmons)
				s.Invalidate()
			}
		},
	}, schedule)
	return cp, err
}

// probeAdmission takes the post-warmup admission probes: the running
// guaranteed stream's own spec must be feasible on the warm paths; an
// oversized ask must be deterministically rejected with the
// best-feasible-spec upcall.
func (cp *controlPlane) probeAdmission() {
	cp.decisions = append(cp.decisions, cp.adm.Admit(churnStreams[0]), cp.adm.Admit(stream.Spec{
		Name: "Whale", Kind: stream.Probabilistic,
		RequiredMbps: 250, Probability: 0.99,
	}))
}

// record is what the control plane did in its run: the ChurnRun without
// the scheduler's remaps and the guarantees.
func (cp *controlPlane) record() *ChurnRun {
	run := &ChurnRun{Mode: cp.mode, Reroutes: cp.ctl.Reroutes(), ConvergeTicks: cp.ctl.MaxConvergenceTicks(),
		decisions: cp.decisions}
	if cp.ctl.Done() {
		run.ControlEvents = uint64(cp.events)
	}
	return run
}

// churnOf condenses the churn figure's static and control runs under
// p.Run.
func churnOf(results []Result) *ChurnResult {
	out := &ChurnResult{}
	for _, res := range results {
		run := *res.churn
		run.Remaps, run.Accounts = res.PGOSStats.Remaps, res.Telemetry.Streams
		if run.Mode == "static" {
			out.Static = run
		} else {
			out.Control, out.Admission = run, run.decisions
		}
	}
	return out
}
