// Package overlay models the paper's overlay graph G = (V, E): servers
// (data sources), router daemons, and clients (sinks) joined by logical
// links, with enumeration of the disjoint and k-shortest paths P^j between a
// server and client that PGOS schedules across (§5.1). Like the paper (and
// OverQoS), it makes no placement decisions — it represents whatever
// placement the middleware chose and answers path queries about it.
package overlay

import (
	"errors"
	"fmt"
)

// Kind classifies an overlay node.
type Kind int

// Node kinds.
const (
	Server Kind = iota
	Router
	Client
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Server:
		return "server"
	case Router:
		return "router"
	case Client:
		return "client"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NodeID identifies a node within its graph.
type NodeID int

// Node is one overlay process.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
}

// Graph is a directed overlay graph. Use AddDuplex for the common
// bidirectional logical links.
//
// The graph is mutable: the control plane removes edges and marks nodes
// down as membership changes, and every mutation bumps a monotonic
// topology version so cached routing state can detect staleness. Down
// nodes stay registered (IDs are stable indices) but are invisible to
// path enumeration.
type Graph struct {
	nodes   []Node
	down    []bool // down[id] marks a failed/departed node
	adj     map[NodeID][]NodeID
	version int64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[NodeID][]NodeID)}
}

// Version returns the topology version: it starts at 0 and increments on
// every mutation (node/edge add or remove, node state change). Consumers
// holding routing state derived from an older version know it is stale.
func (g *Graph) Version() int64 { return g.version }

// AddNode registers a node and returns its ID.
func (g *Graph) AddNode(name string, kind Kind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.down = append(g.down, false)
	g.version++
	return id
}

// Node returns the node record for id.
func (g *Graph) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return Node{}, fmt.Errorf("overlay: no node %d", id)
	}
	return g.nodes[id], nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// checkNode panics when id is not a registered node. Edge mutations call
// it so an out-of-range endpoint fails at the insertion site instead of
// corrupting later path enumeration.
func (g *Graph) checkNode(op string, id NodeID) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("overlay: %s: no node %d (graph has %d nodes)", op, id, len(g.nodes)))
	}
}

// AddEdge adds the directed logical link a→b. Duplicate edges are
// ignored. It panics when either endpoint is not a registered node.
func (g *Graph) AddEdge(a, b NodeID) {
	g.checkNode("AddEdge", a)
	g.checkNode("AddEdge", b)
	for _, x := range g.adj[a] {
		if x == b {
			return
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.version++
}

// AddDuplex adds logical links in both directions. Like AddEdge it panics
// on an unregistered endpoint.
func (g *Graph) AddDuplex(a, b NodeID) {
	g.AddEdge(a, b)
	g.AddEdge(b, a)
}

// RemoveEdge deletes the directed logical link a→b. Removing an edge that
// does not exist is a no-op (idempotent teardown). It panics when either
// endpoint is not a registered node.
func (g *Graph) RemoveEdge(a, b NodeID) {
	g.checkNode("RemoveEdge", a)
	g.checkNode("RemoveEdge", b)
	adj := g.adj[a]
	for i, x := range adj {
		if x == b {
			g.adj[a] = append(adj[:i], adj[i+1:]...)
			g.version++
			return
		}
	}
}

// RemoveDuplex deletes the logical links in both directions.
func (g *Graph) RemoveDuplex(a, b NodeID) {
	g.RemoveEdge(a, b)
	g.RemoveEdge(b, a)
}

// SetNodeState marks a node up (true) or down (false). A down node keeps
// its ID and edges but is skipped by every path query, so routes through
// it disappear until it comes back. Setting the current state is a no-op
// (no version bump).
func (g *Graph) SetNodeState(id NodeID, up bool) {
	g.checkNode("SetNodeState", id)
	if g.down[id] == !up {
		return
	}
	g.down[id] = !up
	g.version++
}

// NodeUp reports whether id is registered and currently up.
func (g *Graph) NodeUp(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(g.nodes) && !g.down[id]
}

// UpCount returns the number of nodes currently up.
func (g *Graph) UpCount() int {
	n := 0
	for _, d := range g.down {
		if !d {
			n++
		}
	}
	return n
}

// RemoveNode fails a node hard: it is marked down and every incident edge
// (in both directions) is deleted. The ID remains registered — a later
// join re-adds edges and flips the state back up. It panics when id is
// not a registered node.
func (g *Graph) RemoveNode(id NodeID) {
	g.checkNode("RemoveNode", id)
	if len(g.adj[id]) > 0 {
		delete(g.adj, id)
		g.version++
	}
	// maporder: each list drops id on its own; the version counts removed
	// edges, the same total in any order.
	for from, adj := range g.adj {
		for i := 0; i < len(adj); {
			if adj[i] == id {
				adj = append(adj[:i], adj[i+1:]...)
				g.version++
			} else {
				i++
			}
		}
		g.adj[from] = adj
	}
	if !g.down[id] {
		g.down[id] = true
		g.version++
	}
}

// Neighbors returns the out-neighbors of id in insertion order, including
// those currently down (the physical adjacency; path queries filter).
func (g *Graph) Neighbors(id NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[id]))
	copy(out, g.adj[id])
	return out
}

// HasEdge reports whether the directed edge a→b exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	for _, x := range g.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

// ErrNoPath reports that no path exists between the queried endpoints.
var ErrNoPath = errors.New("overlay: no path")

// DisjointPaths returns a maximal set of pairwise edge-disjoint paths from
// src to dst, found by repeated BFS with used-edge removal (unit-capacity
// augmentation). These are the concurrent paths PGOS stripes streams over:
// edge-disjointness is the "no shared bottleneck" placement assumption the
// paper shares with OverQoS.
func (g *Graph) DisjointPaths(src, dst NodeID) [][]NodeID {
	if !g.NodeUp(src) || !g.NodeUp(dst) {
		return nil
	}
	if src == dst {
		// The trivial path consumes no edges; without this guard the
		// augmentation loop below would find it forever.
		return [][]NodeID{{src}}
	}
	used := make(map[[2]NodeID]bool)
	var out [][]NodeID
	for {
		p := g.bfs(src, dst, used)
		if p == nil {
			return out
		}
		for i := 0; i+1 < len(p); i++ {
			used[[2]NodeID{p[i], p[i+1]}] = true
		}
		out = append(out, p)
	}
}

func (g *Graph) bfs(src, dst NodeID, used map[[2]NodeID]bool) []NodeID {
	if !g.NodeUp(src) || !g.NodeUp(dst) {
		return nil
	}
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var rev []NodeID
			for x := dst; ; x = prev[x] {
				rev = append(rev, x)
				if x == src {
					break
				}
			}
			out := make([]NodeID, len(rev))
			for i, x := range rev {
				out[len(rev)-1-i] = x
			}
			return out
		}
		for _, nb := range g.adj[n] {
			if used[[2]NodeID{n, nb}] || !g.NodeUp(nb) {
				continue
			}
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = n
			queue = append(queue, nb)
		}
	}
	return nil
}

// KShortestPaths returns up to k loopless paths from src to dst in
// nondecreasing length order (Yen's algorithm over unweighted hops).
// Unlike DisjointPaths these may share edges — the candidate set a path
// selector ranks by monitored quality when full disjointness is not
// available.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) [][]NodeID {
	if k <= 0 {
		return nil
	}
	shortest := g.bfs(src, dst, nil)
	if shortest == nil {
		return nil
	}
	paths := [][]NodeID{shortest}
	var candidates [][]NodeID
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// For each spur node of the previous path, search for a deviation
		// that avoids the roots of all known paths.
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			root := prev[:i+1]
			banned := map[[2]NodeID]bool{}
			for _, p := range paths {
				if len(p) > i && equalPath(p[:i+1], root) {
					banned[[2]NodeID{p[i], p[i+1]}] = true
				}
			}
			// Ban root nodes (except the spur) by banning all their edges.
			for _, n := range root[:len(root)-1] {
				for _, nb := range g.adj[n] {
					banned[[2]NodeID{n, nb}] = true
				}
				// maporder: a set insert; the order cannot matter.
				for nb := range g.adj {
					banned[[2]NodeID{nb, n}] = true
				}
			}
			if tail := g.bfs(spur, dst, banned); tail != nil {
				cand := append(append([]NodeID{}, root[:len(root)-1]...), tail...)
				if !containsPath(paths, cand) && !containsPath(candidates, cand) {
					candidates = append(candidates, cand)
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Take the shortest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if len(candidates[i]) < len(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func equalPath(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(set [][]NodeID, p []NodeID) bool {
	for _, q := range set {
		if equalPath(q, p) {
			return true
		}
	}
	return false
}

// PathString renders a node path using node names.
func (g *Graph) PathString(path []NodeID) string {
	s := ""
	for i, id := range path {
		if i > 0 {
			s += "→"
		}
		if int(id) >= 0 && int(id) < len(g.nodes) {
			s += g.nodes[id].Name
		} else {
			s += fmt.Sprintf("?%d", id)
		}
	}
	return s
}
