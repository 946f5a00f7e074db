package overlay

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig8 builds the paper's testbed graph: server, two router chains, client.
func fig8() (*Graph, NodeID, NodeID) {
	g := NewGraph()
	n1 := g.AddNode("N-1", Server)
	n2 := g.AddNode("N-2", Router)
	n3 := g.AddNode("N-3", Router)
	n4 := g.AddNode("N-4", Router)
	n5 := g.AddNode("N-5", Router)
	n6 := g.AddNode("N-6", Client)
	g.AddDuplex(n1, n3)
	g.AddDuplex(n3, n5)
	g.AddDuplex(n5, n6)
	g.AddDuplex(n1, n2)
	g.AddDuplex(n2, n4)
	g.AddDuplex(n4, n6)
	return g, n1, n6
}

func TestNodeLookup(t *testing.T) {
	g := NewGraph()
	id := g.AddNode("s", Server)
	n, err := g.Node(id)
	if err != nil || n.Name != "s" || n.Kind != Server {
		t.Fatalf("node lookup: %+v %v", n, err)
	}
	if _, err := g.Node(99); err == nil {
		t.Fatal("expected error for unknown node")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestKindString(t *testing.T) {
	if Server.String() != "server" || Router.String() != "router" || Client.String() != "client" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Router)
	b := g.AddNode("b", Router)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if len(g.Neighbors(a)) != 1 {
		t.Fatal("duplicate edge not deduplicated")
	}
}

func TestDisjointPathsFig8(t *testing.T) {
	g, src, dst := fig8()
	paths := g.DisjointPaths(src, dst)
	if len(paths) != 2 {
		t.Fatalf("found %d disjoint paths, want 2", len(paths))
	}
	// Edge-disjointness.
	used := map[[2]NodeID]bool{}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			e := [2]NodeID{p[i], p[i+1]}
			if used[e] {
				t.Fatalf("edge %v reused", e)
			}
			used[e] = true
		}
	}
}

func TestDisjointPathsDiamondWithShortcut(t *testing.T) {
	// src → a → dst, src → b → dst, src → dst: 3 disjoint paths.
	g := NewGraph()
	src := g.AddNode("s", Server)
	a := g.AddNode("a", Router)
	b := g.AddNode("b", Router)
	dst := g.AddNode("d", Client)
	g.AddEdge(src, a)
	g.AddEdge(a, dst)
	g.AddEdge(src, b)
	g.AddEdge(b, dst)
	g.AddEdge(src, dst)
	if got := g.DisjointPaths(src, dst); len(got) != 3 {
		t.Fatalf("disjoint paths = %d, want 3", len(got))
	}
}

func TestPathString(t *testing.T) {
	g, src, dst := fig8()
	paths := g.KShortestPaths(src, dst, 1)
	s := g.PathString(paths[0])
	if s == "" || s[0] != 'N' {
		t.Fatalf("PathString = %q", s)
	}
	if got := g.PathString([]NodeID{99}); got != "?99" {
		t.Fatalf("unknown node rendering = %q", got)
	}
}

func TestKShortestPathsFig8(t *testing.T) {
	g, src, dst := fig8()
	paths := g.KShortestPaths(src, dst, 5)
	if len(paths) != 2 { // only two loopless routes exist
		t.Fatalf("k-shortest = %d, want 2: %v", len(paths), paths)
	}
	for i := 1; i < len(paths); i++ {
		if len(paths[i]) < len(paths[i-1]) {
			t.Fatal("paths not in nondecreasing length order")
		}
	}
}

func TestKShortestPathsSharedEdges(t *testing.T) {
	// src→a→dst plus src→a→b→dst share edge src→a: DisjointPaths finds
	// one, KShortestPaths finds both.
	g := NewGraph()
	src := g.AddNode("s", Server)
	a := g.AddNode("a", Router)
	b := g.AddNode("b", Router)
	dst := g.AddNode("d", Client)
	g.AddEdge(src, a)
	g.AddEdge(a, dst)
	g.AddEdge(a, b)
	g.AddEdge(b, dst)
	if got := g.DisjointPaths(src, dst); len(got) != 1 {
		t.Fatalf("disjoint = %d, want 1", len(got))
	}
	paths := g.KShortestPaths(src, dst, 4)
	if len(paths) != 2 {
		t.Fatalf("k-shortest = %d, want 2: %v", len(paths), paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 4 {
		t.Fatalf("lengths: %v", paths)
	}
}

func TestKShortestPathsEdgeCases(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Server)
	b := g.AddNode("b", Client)
	if got := g.KShortestPaths(a, b, 3); got != nil {
		t.Fatal("disconnected should return nil")
	}
	g.AddEdge(a, b)
	if got := g.KShortestPaths(a, b, 0); got != nil {
		t.Fatal("k=0 returns nil")
	}
	if got := g.KShortestPaths(a, b, 3); len(got) != 1 {
		t.Fatalf("single edge: %v", got)
	}
}

// mustPanic asserts fn panics; the regression guard for edge mutations
// naming nonexistent nodes.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestEdgeEndpointValidation is the regression test for the silent
// out-of-range endpoint bug: AddEdge/AddDuplex used to accept any NodeID,
// creating edges to nonexistent nodes that later broke path enumeration.
func TestEdgeEndpointValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Server)
	b := g.AddNode("b", Client)
	mustPanic(t, "AddEdge out-of-range dst", func() { g.AddEdge(a, 7) })
	mustPanic(t, "AddEdge negative src", func() { g.AddEdge(-1, b) })
	mustPanic(t, "AddDuplex out-of-range", func() { g.AddDuplex(9, a) })
	mustPanic(t, "RemoveEdge out-of-range", func() { g.RemoveEdge(a, 7) })
	mustPanic(t, "SetNodeState out-of-range", func() { g.SetNodeState(5, false) })
	mustPanic(t, "RemoveNode out-of-range", func() { g.RemoveNode(5) })
	// Valid mutations still work after the failed ones.
	g.AddEdge(a, b)
	if !g.HasEdge(a, b) {
		t.Fatal("valid edge lost")
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Server)
	b := g.AddNode("b", Client)
	v := g.Version()
	g.AddEdge(a, b)
	if g.Version() != v+1 {
		t.Fatalf("AddEdge: version %d, want %d", g.Version(), v+1)
	}
	g.AddEdge(a, b) // duplicate: no change
	if g.Version() != v+1 {
		t.Fatal("duplicate AddEdge bumped version")
	}
	g.RemoveEdge(a, b)
	if g.Version() != v+2 {
		t.Fatal("RemoveEdge did not bump version")
	}
	g.RemoveEdge(a, b) // absent: no change
	if g.Version() != v+2 {
		t.Fatal("no-op RemoveEdge bumped version")
	}
	g.SetNodeState(b, false)
	if g.Version() != v+3 {
		t.Fatal("SetNodeState did not bump version")
	}
	g.SetNodeState(b, false) // same state: no change
	if g.Version() != v+3 {
		t.Fatal("no-op SetNodeState bumped version")
	}
}

func TestPathsSrcEqualsDst(t *testing.T) {
	g, src, _ := fig8()
	if got := g.DisjointPaths(src, src); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("DisjointPaths(src,src) = %v, want the trivial path", got)
	}
	if got := g.KShortestPaths(src, src, 3); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("KShortestPaths(src,src) = %v, want the trivial path", got)
	}
}

func TestDisconnectedQueries(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Server)
	g.AddNode("island", Router)
	b := g.AddNode("b", Client)
	if got := g.DisjointPaths(a, b); len(got) != 0 {
		t.Fatalf("disjoint on disconnected = %v", got)
	}
	if got := g.KShortestPaths(a, b, 2); got != nil {
		t.Fatalf("k-shortest on disconnected = %v", got)
	}
}

// TestRemovalInvalidatesPaths covers enumeration behavior after edge and
// node removal — the churn operations the control plane performs.
func TestRemovalInvalidatesPaths(t *testing.T) {
	g, src, dst := fig8()
	n3, _ := g.Node(2) // "N-3"
	if n3.Name != "N-3" {
		t.Fatalf("unexpected node layout: %+v", n3)
	}
	if got := g.DisjointPaths(src, dst); len(got) != 2 {
		t.Fatalf("baseline disjoint = %d", len(got))
	}

	// Fail router N-3: only the N-2/N-4 route survives every query kind.
	g.SetNodeState(n3.ID, false)
	if got := g.DisjointPaths(src, dst); len(got) != 1 {
		t.Fatalf("disjoint after node down = %v", got)
	}
	if got := g.KShortestPaths(src, dst, 4); len(got) != 1 {
		t.Fatalf("k-shortest after node down = %v", got)
	}

	// Recovery restores both routes.
	g.SetNodeState(n3.ID, true)
	if got := g.DisjointPaths(src, dst); len(got) != 2 {
		t.Fatalf("disjoint after recovery = %v", got)
	}

	// Removing one directed edge of the surviving duplex severs forward
	// routes through it but leaves the reverse direction.
	n2, _ := g.Node(1)
	g.RemoveEdge(src, n2.ID)
	if got := g.KShortestPaths(src, dst, 4); len(got) != 1 {
		t.Fatalf("k-shortest after edge removal = %v", got)
	}
	if !g.HasEdge(n2.ID, src) {
		t.Fatal("reverse direction should survive RemoveEdge")
	}

	// RemoveNode hard-fails N-3 (the remaining route's router): no
	// incident edges remain, the node is down, and no forward route is
	// left at all.
	g.RemoveNode(n3.ID)
	if g.NodeUp(n3.ID) {
		t.Fatal("removed node still up")
	}
	if len(g.Neighbors(n3.ID)) != 0 {
		t.Fatal("removed node kept out-edges")
	}
	if got := g.KShortestPaths(src, dst, 4); len(got) != 0 {
		t.Fatalf("paths survive RemoveNode: %v", got)
	}
	if g.UpCount() != g.Len()-1 {
		t.Fatalf("UpCount = %d, want %d", g.UpCount(), g.Len()-1)
	}
}

// Property: every k-shortest path is loopless, valid, and distinct.
func TestKShortestPathsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		n := 5 + rng.Intn(5)
		for i := 0; i < n; i++ {
			g.AddNode("x", Router)
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		src, dst := NodeID(0), NodeID(n-1)
		adj := func(a, b NodeID) bool {
			for _, x := range g.Neighbors(a) {
				if x == b {
					return true
				}
			}
			return false
		}
		paths := g.KShortestPaths(src, dst, 6)
		for pi, p := range paths {
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			seen := map[NodeID]bool{}
			for i, x := range p {
				if seen[x] {
					return false
				}
				seen[x] = true
				if i+1 < len(p) && !adj(x, p[i+1]) {
					return false
				}
			}
			for qi := 0; qi < pi; qi++ {
				if equalPath(paths[qi], p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
