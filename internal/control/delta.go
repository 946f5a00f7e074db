package control

import (
	"iqpaths/internal/gossip"
	"iqpaths/internal/overlay"
)

// meshView adapts the clustered delta/anti-entropy mesh to the
// controller's per-node "believed topology version" abstraction. Each
// witness seed becomes a versioned gossip record originated at the
// witness (key {n, n} in the link namespace — the node's own membership
// assertion); a node's believed version is then the highest record
// version its table has applied, floored at the topology version the
// overlay had when the controller started (nodes begin converged).
type meshView struct {
	mesh *gossip.Mesh
	base int64
}

func newMeshView(p gossip.Params, g *overlay.Graph) *meshView {
	p.Nodes = g.Len()
	m := &meshView{mesh: gossip.NewMesh(p), base: g.Version()}
	for i := 0; i < g.Len(); i++ {
		n := overlay.NodeID(i)
		if !g.NodeUp(n) {
			m.mesh.SetNodeUp(n, false)
		}
	}
	return m
}

// originate issues witness n's assertion of topology version v.
func (m *meshView) originate(n overlay.NodeID, v int64) {
	m.mesh.Originate(n, gossip.LinkKey{From: n, To: n}, true, 0, v)
}

// round runs one mesh gossip round. idx must be a consecutive round
// index (the anti-entropy rotation consumes it).
func (m *meshView) round(idx int64) { m.mesh.Round(idx) }

// view returns node n's believed topology version.
func (m *meshView) view(n overlay.NodeID) int64 {
	v := m.mesh.Table(n).MaxVer()
	if v < m.base {
		return m.base
	}
	return v
}

func (m *meshView) setUp(n overlay.NodeID, up bool) { m.mesh.SetNodeUp(n, up) }
