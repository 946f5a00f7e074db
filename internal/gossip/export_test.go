package gossip

import (
	"iqpaths/internal/overlay"
)

// IsRep reports whether id is currently its cluster's representative.
func (t *Topology) IsRep(id overlay.NodeID) bool {
	r, ok := t.Rep(t.ClusterOf(id))
	return ok && r == id
}

// Len returns the number of live records.
func (t *Table) Len() int { return len(t.recs) }
