package gossip

import (
	"math"

	"iqpaths/internal/overlay"
)

// Stats counts a dissemination engine's traffic and convergence.
type Stats struct {
	// Rounds is how many gossip rounds have run.
	Rounds uint64
	// Messages counts payload-bearing sends (deltas, full tables, and
	// anti-entropy digests/replies).
	Messages uint64
	// Bytes is the total wire bytes of those messages through the codec.
	Bytes uint64
	// DigestBytes is the anti-entropy share of Bytes (always 0 for the
	// flood oracle, which has no digests).
	DigestBytes uint64
	// Converges counts changes fully disseminated to every up node.
	Converges uint64
	// SumConvRounds/MaxConvRounds aggregate rounds-to-convergence over
	// completed changes.
	SumConvRounds uint64
	MaxConvRounds int64
	// StaleNodeRounds counts (up node, round) samples where the node was
	// missing at least one in-flight change; UpNodeRounds is the
	// denominator. Their ratio is the violated-view fraction — the
	// control-plane bound on routing decisions taken from a stale view.
	StaleNodeRounds uint64
	UpNodeRounds    uint64
}

// MeanConvRounds returns the mean rounds-to-convergence (0 when no
// change has completed).
func (s Stats) MeanConvRounds() float64 {
	if s.Converges == 0 {
		return 0
	}
	return float64(s.SumConvRounds) / float64(s.Converges)
}

// ViolatedFrac returns the stale-view fraction.
func (s Stats) ViolatedFrac() float64 {
	if s.UpNodeRounds == 0 {
		return 0
	}
	return float64(s.StaleNodeRounds) / float64(s.UpNodeRounds)
}

// Engine is a dissemination protocol over the clustered topology: the
// delta Mesh and the FullFlood oracle implement it identically so they
// can be driven by one script and compared.
type Engine interface {
	// SetNodeUp changes a node's membership state.
	SetNodeUp(id overlay.NodeID, up bool)
	// Originate issues a new fact from origin's table and starts
	// tracking its convergence.
	Originate(origin overlay.NodeID, key LinkKey, up bool, mbps float64, ver int64) Record
	// Round runs one gossip round at round counter `now`.
	Round(now int64)
	// Table returns node id's link-state database.
	Table(id overlay.NodeID) *Table
	// Topology returns the shared cluster layout.
	Topology() *Topology
	// Stats returns the running counters.
	Stats() Stats
	// Converged reports whether every in-flight change has reached every
	// up node.
	Converged() bool
}

// inflightChange tracks one originated record until every up node
// covers it.
type inflightChange struct {
	rec   Record
	start int64
}

// engineCore is the state shared by both engines: tables, topology,
// the truth table (the LWW join of everything originated — what every
// up node must converge to), and convergence accounting.
//
// Coverage is monotone (Apply installs only superseding records and no
// engine replaces a table), so covered remembers it: one node bitset of
// words uint64s per in-flight change, in inflight's order.
type engineCore struct {
	topo     *Topology
	tabs     []*Table
	truth    *Table
	inflight []inflightChange
	covered  []uint64
	words    int
	stats    Stats
}

func newEngineCore(nodes, clusterSize int) *engineCore {
	if clusterSize <= 0 {
		clusterSize = int(math.Ceil(math.Sqrt(float64(nodes))))
	}
	c := &engineCore{
		topo:  NewTopology(nodes, clusterSize),
		tabs:  make([]*Table, nodes),
		truth: NewTable(),
		words: (nodes + 63) / 64,
	}
	for i := range c.tabs {
		c.tabs[i] = NewTable()
	}
	return c
}

func (c *engineCore) SetNodeUp(id overlay.NodeID, up bool) { c.topo.SetUp(id, up) }

func (c *engineCore) Table(id overlay.NodeID) *Table { return c.tabs[id] }

func (c *engineCore) Topology() *Topology { return c.topo }

func (c *engineCore) Stats() Stats { return c.stats }

func (c *engineCore) Converged() bool { return len(c.inflight) == 0 }

// Originate issues the record from the origin's own table (the witness
// knows immediately), mirrors it into the truth table, and tracks its
// convergence. The convergence clock is the engine's internal completed-
// round counter, so callers' tick numbering does not matter.
func (c *engineCore) Originate(origin overlay.NodeID, key LinkKey, up bool, mbps float64, ver int64) Record {
	rec := c.tabs[origin].Originate(origin, key, up, mbps, ver)
	c.truth.Apply(rec)
	c.inflight = append(c.inflight, inflightChange{rec: rec, start: int64(c.stats.Rounds)})
	c.covered = append(c.covered, make([]uint64, c.words)...)
	return rec
}

// covers reports whether node i covers rec, remembering a yes in bits,
// rec's coverage bitset.
func (c *engineCore) covers(bits []uint64, i int, rec Record) bool {
	w, b := &bits[i/64], uint64(1)<<(i%64)
	if *w&b == 0 && c.tabs[i].Covers(rec) {
		*w |= b
	}
	return *w&b != 0
}

// bits returns in-flight change k's coverage bitset.
func (c *engineCore) bits(k int) []uint64 { return c.covered[k*c.words : (k+1)*c.words] }

// afterRound completes convergence accounting for one round: in-flight
// changes covered by every up node complete, and each up node missing
// any still-in-flight change counts one stale node-round.
func (c *engineCore) afterRound() {
	c.stats.Rounds++
	now := int64(c.stats.Rounds)
	if len(c.inflight) == 0 {
		return
	}
	kept := c.inflight[:0]
	for k, f := range c.inflight {
		bits := c.bits(k)
		done := true
		for i := 0; i < c.topo.Len(); i++ {
			id := overlay.NodeID(i)
			if c.topo.Up(id) && !c.covers(bits, i, f.rec) {
				done = false
				break
			}
		}
		if done {
			d := now - f.start
			c.stats.Converges++
			c.stats.SumConvRounds += uint64(d)
			if d > c.stats.MaxConvRounds {
				c.stats.MaxConvRounds = d
			}
		} else {
			copy(c.bits(len(kept)), bits)
			kept = append(kept, f)
		}
	}
	c.inflight = kept
	c.covered = c.covered[:len(kept)*c.words]
	// Stale accounting runs against the changes still in flight after
	// completion, so a change that reached everyone this round charges
	// nobody.
	for i := 0; i < c.topo.Len(); i++ {
		id := overlay.NodeID(i)
		if !c.topo.Up(id) {
			continue
		}
		c.stats.UpNodeRounds++
		for k, f := range c.inflight {
			if !c.covers(c.bits(k), i, f.rec) {
				c.stats.StaleNodeRounds++
				break
			}
		}
	}
}
