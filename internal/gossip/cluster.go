package gossip

import (
	"iqpaths/internal/overlay"
)

// Topology partitions the overlay into fixed-size clusters and elects a
// deterministic representative per cluster: the lowest-id up member.
// Members gossip only with their representative (a star), and
// representatives gossip with each other over a ring plus seeded random
// fanout — the CliqueStream shape that keeps per-node dissemination cost
// flat as the node count grows. Elections need no protocol rounds:
// every node computes the same representative from the same membership,
// so a representative failure "fails over" the moment the membership
// fact reaches a member.
type Topology struct {
	n    int
	size int
	up   []bool
	// upInCluster counts live members per cluster so Rep can early-out
	// on dead clusters without scanning.
	upInCluster []int
}

// NewTopology builds a topology of n nodes in clusters of clusterSize
// (the last cluster may be short). All nodes start up.
func NewTopology(n, clusterSize int) *Topology {
	if clusterSize <= 0 {
		clusterSize = 1
	}
	t := &Topology{
		n:           n,
		size:        clusterSize,
		up:          make([]bool, n),
		upInCluster: make([]int, (n+clusterSize-1)/clusterSize),
	}
	for i := range t.up {
		t.up[i] = true
		t.upInCluster[i/clusterSize]++
	}
	return t
}

// Len returns the node count.
func (t *Topology) Len() int { return t.n }

// Clusters returns the cluster count.
func (t *Topology) Clusters() int { return len(t.upInCluster) }

// ClusterOf returns the cluster index of node id.
func (t *Topology) ClusterOf(id overlay.NodeID) int { return int(id) / t.size }

// Up reports whether node id is up.
func (t *Topology) Up(id overlay.NodeID) bool {
	return int(id) >= 0 && int(id) < t.n && t.up[id]
}

// SetUp marks a node up or down.
func (t *Topology) SetUp(id overlay.NodeID, up bool) {
	if int(id) < 0 || int(id) >= t.n || t.up[id] == up {
		return
	}
	t.up[id] = up
	if up {
		t.upInCluster[t.ClusterOf(id)]++
	} else {
		t.upInCluster[t.ClusterOf(id)]--
	}
}

// Rep returns cluster c's representative — the lowest-id up member —
// and whether the cluster has any live member at all.
func (t *Topology) Rep(c int) (overlay.NodeID, bool) {
	if c < 0 || c >= len(t.upInCluster) || t.upInCluster[c] == 0 {
		return 0, false
	}
	lo := c * t.size
	hi := lo + t.size
	if hi > t.n {
		hi = t.n
	}
	for i := lo; i < hi; i++ {
		if t.up[i] {
			return overlay.NodeID(i), true
		}
	}
	return 0, false
}

// Members appends cluster c's up members (representative included) to
// dst in id order.
func (t *Topology) Members(c int, dst []overlay.NodeID) []overlay.NodeID {
	lo := c * t.size
	hi := lo + t.size
	if hi > t.n {
		hi = t.n
	}
	for i := lo; i < hi; i++ {
		if t.up[i] {
			dst = append(dst, overlay.NodeID(i))
		}
	}
	return dst
}

// Reps appends every live cluster's representative to dst in cluster
// order.
func (t *Topology) Reps(dst []overlay.NodeID) []overlay.NodeID {
	for c := 0; c < len(t.upInCluster); c++ {
		if r, ok := t.Rep(c); ok {
			dst = append(dst, r)
		}
	}
	return dst
}

// NextRep returns the ring successor of cluster c's representative: the
// representative of the next live cluster in cyclic cluster order, or
// !ok when c's is the only one.
func (t *Topology) NextRep(c int) (overlay.NodeID, bool) {
	n := len(t.upInCluster)
	for i := 1; i < n; i++ {
		if r, ok := t.Rep((c + i) % n); ok {
			return r, true
		}
	}
	return 0, false
}
