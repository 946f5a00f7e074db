package control

import (
	"iqpaths/internal/gossip"
	"iqpaths/internal/overlay"
)

// Views returns a copy of the per-node believed topology versions.
func (c *Controller) Views() []int64 { return append([]int64(nil), c.views...) }

// Converged reports whether every up node's view has reached the current
// topology version.
func (c *Controller) Converged() bool {
	g := c.cfg.Graph
	for i := range c.views {
		if g.NodeUp(overlay.NodeID(i)) && c.views[i] < g.Version() {
			return false
		}
	}
	return true
}

// LastConvergenceTicks returns the duration in ticks of the most recently
// completed convergence (change applied → all up views caught up), or −1
// when none has completed yet.
func (c *Controller) LastConvergenceTicks() int64 { return c.lastConvergence }

// ClusterStats returns the mesh dissemination counters when the
// controller runs clustered (Config.Cluster non-nil); ok is false on
// the flat neighbor-max path.
func (c *Controller) ClusterStats() (gossip.Stats, bool) {
	if c.mesh == nil {
		return gossip.Stats{}, false
	}
	return c.mesh.mesh.Stats(), true
}

// ClusterTable returns node n's link-state table when running clustered
// (nil otherwise) — the handle daemons serve /gossip/digest from and
// differential tests compare.
func (c *Controller) ClusterTable(n overlay.NodeID) *gossip.Table {
	if c.mesh == nil {
		return nil
	}
	return c.mesh.mesh.Table(n)
}

// Join scripts node joining at atTick with duplex links to attach.
func Join(node overlay.NodeID, atTick int64, attach ...overlay.NodeID) Schedule {
	return Schedule{{AtTick: atTick, Kind: NodeJoin, Node: node, Attach: attach}}
}

// Leave scripts a graceful departure of node at atTick.
func Leave(node overlay.NodeID, atTick int64) Schedule {
	return Schedule{{AtTick: atTick, Kind: NodeLeave, Node: node}}
}

// Fail scripts an abrupt failure of node at atTick.
func Fail(node overlay.NodeID, atTick int64) Schedule {
	return Schedule{{AtTick: atTick, Kind: NodeFail, Node: node}}
}

// AddLink scripts a duplex link a ↔ b appearing at atTick.
func AddLink(a, b overlay.NodeID, atTick int64) Schedule {
	return Schedule{{AtTick: atTick, Kind: LinkAdd, From: a, To: b}}
}

// RemoveLink scripts the duplex link a ↔ b disappearing at atTick.
func RemoveLink(a, b overlay.NodeID, atTick int64) Schedule {
	return Schedule{{AtTick: atTick, Kind: LinkRemove, From: a, To: b}}
}

// Compose concatenates schedules into one script.
func Compose(parts ...Schedule) Schedule {
	var s Schedule
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}
