package gossip

import (
	"math/rand"

	"iqpaths/internal/overlay"
)

// Params configures a dissemination engine over the clustered topology.
type Params struct {
	// Nodes is the overlay size.
	Nodes int
	// ClusterSize is the nodes-per-cluster target; 0 means ceil(sqrt(N)),
	// which balances the member star against the representative ring.
	// knob: control's TestClusterViewsMatchFlatOracle and
	// TestClusterLossyStillConverges and gossip's differential tests run
	// small clusters of 5–8 nodes.
	ClusterSize int
	// LossProb drops each delta push with this probability. Anti-entropy
	// exchanges are never dropped — they are the repair channel.
	LossProb float64
	// Seed seeds the single rand.Rand behind fanout choice and loss.
	Seed int64
}

const (
	// fanout is how many extra random representatives each representative
	// pushes to per round, on top of its ring successor.
	fanout = 1
	// antiEntropyEvery is the anti-entropy period in rounds: each member
	// exchanges digests with its representative once per period (rotated
	// by node id so the load spreads), and representatives exchange with
	// their ring successor on period boundaries.
	antiEntropyEvery = 4
)

// pairKey names a node pair; directed for push floors, normalized
// (low id first) for anti-entropy memos.
type pairKey struct{ a, b overlay.NodeID }

// peerState is a sender's belief about one receiver: the acked floor
// (a version vector the receiver is assumed to cover, indexed by the
// sender's slots: it only ever merges the sender's own vector) and the
// sender's table generation at the last push, so quiet rounds skip the
// table scan entirely.
type peerState struct {
	floor   []uint64
	lastGen uint64
	inited  bool
}

// aeMemo remembers the two table generations after an anti-entropy
// exchange on a pair; while neither table changes, the next exchange is
// digests-only with no scan.
type aeMemo struct {
	genA, genB uint64
}

// digestCache caches one node's encoded digest keyed by table
// generation, so anti-entropy byte accounting does not re-encode an
// unchanged version vector.
type digestCache struct {
	gen   uint64
	buf   []byte
	valid bool
}

// Mesh is the real dissemination protocol: per-link delta pushes along
// the clustered topology (member ↔ representative stars, representative
// ring + random fanout) with rotating anti-entropy digest exchanges
// repairing whatever the lossy pushes missed.
type Mesh struct {
	*engineCore
	p     Params
	rng   *rand.Rand
	peers map[pairKey]*peerState
	ae    map[pairKey]*aeMemo
	dig   []digestCache

	scratch    []byte
	repScratch []overlay.NodeID
	memScratch []overlay.NodeID
	// Delta payloads are applied as soon as they are built and never
	// kept, so their record slices are reused: a push fills bufA, and an
	// exchange builds both directions before either side applies, hence
	// two.
	bufA, bufB []Record
	floorBuf   []uint64
}

// NewMesh builds a delta/anti-entropy engine. Same Params + same call
// sequence replays bit-for-bit.
func NewMesh(p Params) *Mesh {
	return &Mesh{
		engineCore: newEngineCore(p.Nodes, p.ClusterSize),
		p:          p,
		rng:        rand.New(rand.NewSource(p.Seed)),
		peers:      make(map[pairKey]*peerState),
		ae:         make(map[pairKey]*aeMemo),
		dig:        make([]digestCache, p.Nodes),
	}
}

// Round runs one gossip round. Phases, in deterministic order: members
// push deltas up to their representative; representatives push to their
// ring successor plus Fanout random representatives; representatives
// push back down to members; then the rotating anti-entropy slice for
// this round exchanges digests and repairs.
func (m *Mesh) Round(now int64) {
	t := m.topo
	// Phase A — up: a change witnessed at any member reaches its
	// representative this round.
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		m.memScratch = t.Members(c, m.memScratch[:0])
		for _, mem := range m.memScratch {
			if mem != rep {
				m.push(mem, rep)
			}
		}
	}
	// Phase B — across: ring guarantees connectivity, fanout shortens
	// the path below the ring's O(clusters) worst case.
	m.repScratch = t.Reps(m.repScratch[:0])
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		if next, ok := t.NextRep(c); ok {
			m.push(rep, next)
		}
		if len(m.repScratch) > 1 {
			for f := 0; f < fanout; f++ {
				tgt := m.repScratch[m.rng.Intn(len(m.repScratch))]
				if tgt != rep {
					m.push(rep, tgt)
				}
			}
		}
	}
	// Phase C — down: whatever the representative learned this round
	// reaches its members this round.
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		m.memScratch = t.Members(c, m.memScratch[:0])
		for _, mem := range m.memScratch {
			if mem != rep {
				m.push(rep, mem)
			}
		}
	}
	// Phase D — anti-entropy, rotated by node id so each round repairs a
	// 1/antiEntropyEvery slice of the member stars.
	ae := int64(antiEntropyEvery)
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		m.memScratch = t.Members(c, m.memScratch[:0])
		for _, mem := range m.memScratch {
			if mem != rep && (int64(mem)+now)%ae == 0 {
				m.exchange(mem, rep)
			}
		}
		if now%ae == 0 {
			if next, ok := t.NextRep(c); ok {
				m.exchange(rep, next)
			}
		}
	}
	m.afterRound()
}

func (m *Mesh) peer(from, to overlay.NodeID) *peerState {
	k := pairKey{from, to}
	st := m.peers[k]
	if st == nil {
		st = &peerState{}
		m.peers[k] = st
	}
	return st
}

// push sends from's records above the acked floor to to. The floor is
// an *acked* version vector: it advances only when the delta is
// delivered (or when there was nothing live to send, which the
// coverage invariant already implies the peer holds). A lost delta
// leaves both floor and the last-pushed generation untouched, so the
// next round retries — and anti-entropy independently repairs pairs
// that stop pushing.
func (m *Mesh) push(from, to overlay.NodeID) {
	tab := m.tabs[from]
	st := m.peer(from, to)
	if st.inited && st.lastGen == tab.Gen() {
		return // nothing happened at the sender since the last acked push
	}
	recs := tab.appendMissing(m.bufA[:0], st.floor)
	m.bufA = recs
	if len(recs) == 0 {
		st.lastGen = tab.Gen()
		st.inited = true
		st.floor = raiseFloor(st.floor, tab)
		return
	}
	m.scratch = appendDelta(m.scratch[:0], recs)
	m.stats.Messages++
	m.stats.Bytes += uint64(len(m.scratch))
	if m.p.LossProb > 0 && m.rng.Float64() < m.p.LossProb {
		return
	}
	m.tabs[to].applyAll(recs)
	st.lastGen = tab.Gen()
	st.inited = true
	st.floor = raiseFloor(st.floor, tab)
}

// exchange runs one bidirectional anti-entropy round-trip between a and
// b: both digests cross the wire, then each side sends the records the
// other's digest does not cover. Never lossy. While both tables sit at
// the generations of the last exchange, only the (cached) digests are
// charged and the record scans are skipped.
func (m *Mesh) exchange(a, b overlay.NodeID) {
	n := uint64(len(m.cachedDigest(a)) + len(m.cachedDigest(b)))
	m.stats.Messages += 2
	m.stats.Bytes += n
	m.stats.DigestBytes += n

	k := pairKey{a, b}
	if b < a {
		k = pairKey{b, a}
	}
	ta, tb := m.tabs[a], m.tabs[b]
	if memo := m.ae[k]; memo != nil &&
		memo.genA == m.tabs[k.a].Gen() && memo.genB == m.tabs[k.b].Gen() {
		return
	}
	// Both missing sets are computed before either side applies, as a
	// real exchange would: each reply answers the digest as advertised.
	m.floorBuf = tb.floorFrom(m.floorBuf, ta)
	recsToA := tb.appendMissing(m.bufA[:0], m.floorBuf)
	m.floorBuf = ta.floorFrom(m.floorBuf, tb)
	recsToB := ta.appendMissing(m.bufB[:0], m.floorBuf)
	m.bufA, m.bufB = recsToA, recsToB
	if len(recsToA) > 0 {
		m.scratch = appendDelta(m.scratch[:0], recsToA)
		m.stats.Messages++
		m.stats.Bytes += uint64(len(m.scratch))
		ta.applyAll(recsToA)
	}
	if len(recsToB) > 0 {
		m.scratch = appendDelta(m.scratch[:0], recsToB)
		m.stats.Messages++
		m.stats.Bytes += uint64(len(m.scratch))
		tb.applyAll(recsToB)
	}
	// Both sides now cover the joined version vector: sync push floors in
	// both directions so the next delta push starts from here.
	m.syncFloor(a, b)
	m.syncFloor(b, a)
	memo := m.ae[k]
	if memo == nil {
		memo = &aeMemo{}
		m.ae[k] = memo
	}
	memo.genA = m.tabs[k.a].Gen()
	memo.genB = m.tabs[k.b].Gen()
}

func (m *Mesh) syncFloor(from, to overlay.NodeID) {
	st := m.peer(from, to)
	st.floor = raiseFloor(st.floor, m.tabs[from])
	st.lastGen = m.tabs[from].Gen()
	st.inited = true
}

func (m *Mesh) cachedDigest(n overlay.NodeID) []byte {
	dc := &m.dig[n]
	if !dc.valid || dc.gen != m.tabs[n].Gen() {
		dc.buf = appendTableDigest(dc.buf[:0], m.tabs[n])
		dc.gen = m.tabs[n].Gen()
		dc.valid = true
	}
	return dc.buf
}

// raiseFloor raises floor, indexed by t's slots, to cover t's version
// vector.
func raiseFloor(floor []uint64, t *Table) []uint64 {
	if n := len(t.vv) - len(floor); n > 0 {
		floor = append(floor, make([]uint64, n)...)
	}
	for s, e := range t.vv {
		if e.seq > floor[s] {
			floor[s] = e.seq
		}
	}
	return floor
}
