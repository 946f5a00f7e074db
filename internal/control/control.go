// Package control is the overlay control plane the paper's middleware
// runs between the overlay graph and PGOS: dynamic membership (node
// join/leave/fail, link add/remove) applied from deterministic scripts,
// link-state dissemination giving every node a possibly-stale view of the
// topology that converges by periodic gossip, route management that
// recomputes the concurrent path set and rebinds the scheduler when the
// source's view advances, and CDF-based admission control that admits a
// stream only when the probabilistic feasibility test (Lemmas 1–2 over
// per-path bandwidth distributions, after existing commitments) can meet
// its specification — otherwise the caller receives a rejection upcall
// carrying the best specification the overlay can currently promise.
//
// Determinism contract: like package faults, a Schedule is pure data and
// Controller.Tick mutates graph and routing state as a pure function of
// the schedule, the gossip interval, and the tick — no randomness, no wall
// clocks. Convergence time is therefore measurable and reproducible.
package control

import (
	"fmt"

	"iqpaths/internal/gossip"
	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/sched"
	"iqpaths/internal/telemetry"
)

// PathFactory materializes a node route into a transport path and the
// monitor tracking its bandwidth distribution. The factory is how the
// control plane stays transport-agnostic: simulation backs routes with
// simnet paths, the daemons with RUDP sessions.
type PathFactory interface {
	Path(route []overlay.NodeID) (sched.PathService, *monitor.PathMonitor, error)
}

// PathFactoryFunc adapts a function to the PathFactory interface.
type PathFactoryFunc func(route []overlay.NodeID) (sched.PathService, *monitor.PathMonitor, error)

// Path calls f.
func (f PathFactoryFunc) Path(route []overlay.NodeID) (sched.PathService, *monitor.PathMonitor, error) {
	return f(route)
}

// Config parameterizes a Controller.
type Config struct {
	// Graph is the live overlay topology the controller mutates. All
	// nodes that will ever participate must be registered before New;
	// membership toggles their up/down state.
	Graph *overlay.Graph
	// Src, Dst are the endpoints whose concurrent path set the controller
	// manages.
	Src, Dst overlay.NodeID
	// MaxPaths bounds the concurrent path set (default 2).
	MaxPaths int
	// GossipIntervalTicks is the period of link-state dissemination rounds
	// (default 10). Each round, every up node adopts the newest topology
	// version among its up neighbors; convergence time in ticks is roughly
	// interval × graph diameter.
	GossipIntervalTicks int64
	// Cluster, when non-nil, replaces the flat neighbor-max dissemination
	// with the clustered delta/anti-entropy mesh from internal/gossip:
	// witness seeds become versioned records originated at the witnesses,
	// and each gossip interval runs one mesh round (member→rep deltas,
	// rep ring + fanout, anti-entropy). Nodes is overridden with the
	// graph size. The flat path remains the differential-test oracle.
	// knob: only tests set it today (TestClusterViewsMatchFlatOracle,
	// TestClusterLossyStillConverges); ROADMAP item 7 decides which
	// dissemination path the Controller keeps.
	Cluster *gossip.Params
	// FailureDetectTicks delays the moment a failed node's neighbors
	// witness its NodeFail (graceful NodeLeave is always announced
	// immediately). Default 0.
	FailureDetectTicks int64
	// Static freezes route management: membership still mutates the graph
	// and data plane, views still gossip, but the path set bound at New is
	// never rebuilt. This is the static-routing baseline the churn
	// experiment compares against.
	Static bool
	// Factory materializes routes; nil disables route management (the
	// controller then only tracks membership and views — admission-only
	// deployments).
	Factory PathFactory
	// DataPlane, when non-nil, mirrors logical link state onto transport
	// links.
	DataPlane DataPlane
	// Rebind, when non-nil, receives every rebuilt path set — typically
	// pgos.Scheduler.SetPaths followed by Invalidate.
	Rebind func(paths []sched.PathService, mons []*monitor.PathMonitor)
	// Admission, when non-nil, is kept pointed at the current monitor set
	// across reroutes.
	Admission *Admission
	// Telemetry/Tracer wire iqpaths_control_* metrics and control:* trace
	// events; either may be nil.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// pendingChange tracks an applied topology change until every up node's
// view has caught up to it, measuring convergence.
type pendingChange struct {
	version int64
	tick    int64
}

// witnessSeed delivers a topology version directly to the nodes that
// witnessed the change (the mutated endpoints and their neighbors), after
// an optional detection delay.
type witnessSeed struct {
	atTick  int64
	version int64
	nodes   []overlay.NodeID
}

// Controller drives membership, dissemination, and route management over
// one (src, dst) stream endpoint pair. Not safe for concurrent use: the
// emulator's event loop owns it, like every other virtual-time structure.
// Admission (which daemons call from HTTP handlers) locks independently.
type Controller struct {
	cfg    Config
	events []Event
	next   int

	// views[n] is node n's believed topology version — the link-state
	// database age, abstracted to a single monotonic counter. Down nodes'
	// views freeze until they rejoin.
	views         []int64
	routedVersion int64
	pending       []pendingChange
	seeds         []witnessSeed
	// mesh is the clustered dissemination engine when Config.Cluster is
	// set; views then mirror each node's table version after every round.
	mesh *meshView

	routes [][]overlay.NodeID
	paths  []sched.PathService
	mons   []*monitor.PathMonitor

	reroutes        int
	lastConvergence int64
	maxConvergence  int64

	tel ctrlTelemetry
}

// New validates the configuration, sorts the schedule, computes the
// initial path set (when a factory is supplied), and returns the
// controller. The caller reads Paths()/Monitors() to build its scheduler;
// Rebind fires only on subsequent reroutes.
func New(cfg Config, schedule Schedule) (*Controller, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("control: Config.Graph is required")
	}
	if _, err := cfg.Graph.Node(cfg.Src); err != nil {
		return nil, fmt.Errorf("control: bad Src: %w", err)
	}
	if _, err := cfg.Graph.Node(cfg.Dst); err != nil {
		return nil, fmt.Errorf("control: bad Dst: %w", err)
	}
	if cfg.MaxPaths <= 0 {
		cfg.MaxPaths = 2
	}
	if cfg.GossipIntervalTicks <= 0 {
		cfg.GossipIntervalTicks = 10
	}
	c := &Controller{
		cfg:             cfg,
		events:          schedule.sorted(),
		views:           make([]int64, cfg.Graph.Len()),
		routedVersion:   cfg.Graph.Version(),
		lastConvergence: -1,
		tel:             newCtrlTelemetry(cfg.Telemetry, cfg.Tracer),
	}
	for i := range c.views {
		c.views[i] = cfg.Graph.Version()
	}
	if cfg.Cluster != nil {
		c.mesh = newMeshView(*cfg.Cluster, cfg.Graph)
	}
	if cfg.Factory != nil {
		routes := c.computeRoutes()
		if len(routes) == 0 {
			return nil, fmt.Errorf("control: no initial route from %d to %d", cfg.Src, cfg.Dst)
		}
		paths, mons, err := c.materialize(routes)
		if err != nil {
			return nil, err
		}
		c.routes, c.paths, c.mons = routes, paths, mons
		if cfg.Admission != nil {
			cfg.Admission.SetPaths(mons)
		}
	}
	c.tel.gauges(cfg.Graph, len(c.paths))
	return c, nil
}

// Paths returns the active transport paths.
func (c *Controller) Paths() []sched.PathService { return c.paths }

// Monitors returns the monitors of the active paths.
func (c *Controller) Monitors() []*monitor.PathMonitor { return c.mons }

// Reroutes returns how many times the path set was rebuilt.
func (c *Controller) Reroutes() int { return c.reroutes }

// MaxConvergenceTicks returns the slowest completed convergence in ticks
// (the number a "bounded convergence" claim is checked against), or −1
// when none has completed yet.
func (c *Controller) MaxConvergenceTicks() int64 {
	if c.lastConvergence < 0 {
		return -1
	}
	return c.maxConvergence
}

// Done reports whether every scheduled event has fired.
func (c *Controller) Done() bool { return c.next >= len(c.events) }

// Tick advances the control plane to virtual tick now: due membership
// events fire, witness seeds deliver, a gossip round runs on the interval,
// convergence is accounted, and — unless Static — the path set is rebuilt
// when the source's view has advanced past the routed version.
func (c *Controller) Tick(now int64) {
	for c.next < len(c.events) && c.events[c.next].AtTick <= now {
		c.apply(c.events[c.next], now)
		c.next++
	}
	c.deliverSeeds(now)
	if now%c.cfg.GossipIntervalTicks == 0 {
		c.gossip(now)
	}
	c.accountConvergence(now)
	if !c.cfg.Static && c.cfg.Factory != nil && c.views[c.cfg.Src] > c.routedVersion {
		c.reroute(now)
	}
}

// apply mutates the graph and data plane for one event and queues the
// witness seed that starts dissemination.
func (c *Controller) apply(e Event, now int64) {
	g := c.cfg.Graph
	before := g.Version()
	var witnesses []overlay.NodeID
	var delay int64
	switch e.Kind {
	case NodeJoin:
		g.SetNodeState(e.Node, true)
		witnesses = append(witnesses, e.Node)
		for _, a := range e.Attach {
			g.AddDuplex(e.Node, a)
			c.setLink(e.Node, a, true)
			witnesses = append(witnesses, a)
		}
	case NodeLeave, NodeFail:
		witnesses = c.incident(e.Node)
		g.RemoveNode(e.Node)
		for _, nb := range witnesses {
			c.setLink(e.Node, nb, false)
		}
		if e.Kind == NodeFail {
			delay = c.cfg.FailureDetectTicks
		}
	case LinkAdd:
		g.AddDuplex(e.From, e.To)
		c.setLink(e.From, e.To, true)
		witnesses = []overlay.NodeID{e.From, e.To}
	case LinkRemove:
		g.RemoveDuplex(e.From, e.To)
		c.setLink(e.From, e.To, false)
		witnesses = []overlay.NodeID{e.From, e.To}
	}
	if c.mesh != nil {
		switch e.Kind {
		case NodeJoin:
			c.mesh.setUp(e.Node, true)
		case NodeLeave, NodeFail:
			c.mesh.setUp(e.Node, false)
		}
	}
	c.tel.event(e, g)
	if v := g.Version(); v > before {
		c.pending = append(c.pending, pendingChange{version: v, tick: now})
		c.seeds = append(c.seeds, witnessSeed{atTick: now + delay, version: v, nodes: witnesses})
	}
	c.tel.gauges(g, len(c.paths))
}

// incident returns the nodes adjacent to id in either direction.
func (c *Controller) incident(id overlay.NodeID) []overlay.NodeID {
	g := c.cfg.Graph
	seen := map[overlay.NodeID]bool{}
	var out []overlay.NodeID
	for _, nb := range g.Neighbors(id) {
		if !seen[nb] {
			seen[nb] = true
			out = append(out, nb)
		}
	}
	for i := 0; i < g.Len(); i++ {
		n := overlay.NodeID(i)
		if n != id && !seen[n] && g.HasEdge(n, id) {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// setLink mirrors duplex logical link state onto the data plane.
func (c *Controller) setLink(a, b overlay.NodeID, up bool) {
	if c.cfg.DataPlane == nil {
		return
	}
	c.cfg.DataPlane.SetLinkUp(a, b, up)
	c.cfg.DataPlane.SetLinkUp(b, a, up)
}

// deliverSeeds hands due witness seeds to their (up) nodes.
func (c *Controller) deliverSeeds(now int64) {
	kept := c.seeds[:0]
	for _, s := range c.seeds {
		if s.atTick > now {
			kept = append(kept, s)
			continue
		}
		for _, n := range s.nodes {
			if c.cfg.Graph.NodeUp(n) && c.views[n] < s.version {
				if c.mesh != nil {
					c.mesh.originate(n, s.version)
				}
				c.views[n] = s.version
			}
		}
	}
	c.seeds = kept
}

// gossip runs one dissemination round. Clustered (Config.Cluster set):
// one delta/anti-entropy mesh round, after which views mirror each
// node's table version. Flat: every up node adopts the newest version
// among its up neighbors. Either way a rejoining node re-syncs like
// everyone else and down nodes neither send nor receive.
func (c *Controller) gossip(now int64) {
	if c.mesh != nil {
		c.mesh.round(now / c.cfg.GossipIntervalTicks)
		for i := range c.views {
			if v := c.mesh.view(overlay.NodeID(i)); v > c.views[i] {
				c.views[i] = v
			}
		}
		return
	}
	g := c.cfg.Graph
	next := append([]int64(nil), c.views...)
	for i := range c.views {
		n := overlay.NodeID(i)
		if !g.NodeUp(n) {
			continue
		}
		for _, nb := range g.Neighbors(n) {
			if g.NodeUp(nb) && c.views[nb] > next[i] {
				next[i] = c.views[nb]
			}
		}
	}
	c.views = next
}

// accountConvergence completes pending changes once every up node's view
// has reached their version, recording the elapsed ticks.
func (c *Controller) accountConvergence(now int64) {
	if len(c.pending) == 0 {
		return
	}
	g := c.cfg.Graph
	minUp := int64(-1)
	for i := range c.views {
		if !g.NodeUp(overlay.NodeID(i)) {
			continue
		}
		if minUp < 0 || c.views[i] < minUp {
			minUp = c.views[i]
		}
	}
	kept := c.pending[:0]
	for _, p := range c.pending {
		if minUp >= p.version {
			d := now - p.tick
			c.lastConvergence = d
			if d > c.maxConvergence {
				c.maxConvergence = d
			}
			c.tel.converge(d)
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

// computeRoutes enumerates the concurrent path set from the live graph.
// The *trigger* honors staleness (the source only reroutes once its view
// advances); the route content reads current truth, which at that moment
// matches the version the source believes unless yet-newer changes are
// still disseminating.
func (c *Controller) computeRoutes() [][]overlay.NodeID {
	g := c.cfg.Graph
	return g.KShortestPaths(c.cfg.Src, c.cfg.Dst, c.cfg.MaxPaths)
}

func (c *Controller) materialize(routes [][]overlay.NodeID) ([]sched.PathService, []*monitor.PathMonitor, error) {
	var paths []sched.PathService
	var mons []*monitor.PathMonitor
	for _, r := range routes {
		p, m, err := c.cfg.Factory.Path(r)
		if err != nil {
			return nil, nil, fmt.Errorf("control: materialize %v: %w", r, err)
		}
		paths = append(paths, p)
		mons = append(mons, m)
	}
	return paths, mons, nil
}

// reroute rebuilds the path set at the source's current view. An
// unchanged route set advances the routed version without a rebind; an
// empty or unmaterializable set keeps the old paths (better a stale route
// than none) and counts a route failure.
func (c *Controller) reroute(now int64) {
	v := c.views[c.cfg.Src]
	routes := c.computeRoutes()
	c.routedVersion = v
	if len(routes) == 0 {
		c.tel.routeFailure(now)
		return
	}
	if routesEqual(routes, c.routes) {
		return
	}
	paths, mons, err := c.materialize(routes)
	if err != nil {
		c.tel.routeFailure(now)
		return
	}
	c.routes, c.paths, c.mons = routes, paths, mons
	c.reroutes++
	c.tel.reroute(len(paths))
	if c.cfg.Rebind != nil {
		c.cfg.Rebind(paths, mons)
	}
	if c.cfg.Admission != nil {
		c.cfg.Admission.SetPaths(mons)
	}
	c.tel.gauges(c.cfg.Graph, len(c.paths))
}

func routesEqual(a, b [][]overlay.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
