// Package gossip is the cluster-scale control-plane dissemination
// substrate: versioned per-link state records spread by delta gossip
// (push only what the peer has not acknowledged, tracked by per-origin
// version vectors) with periodic anti-entropy digest exchanges that
// repair loss, over a clustered topology where every cluster elects a
// deterministic representative that aggregates intra-cluster state and
// gossips summaries inter-cluster (the CliqueStream shape: dissemination
// cost per node stays flat as the overlay grows, because a member talks
// only to its representative and representatives talk only to each
// other).
//
// The package deliberately separates three layers:
//
//   - Table: one node's link-state database — last-writer-wins records
//     tagged (Seq, Origin) with a Lamport-style per-origin sequence, plus
//     the version vector summarizing which (origin, seq) prefix the node
//     has covered. Canonical serialization makes two tables comparable
//     byte for byte.
//   - Mesh / FullFlood: two dissemination engines over the same clustered
//     topology and the same Table semantics. Mesh is the real protocol
//     (delta push + anti-entropy); FullFlood resends whole tables every
//     round and is retained purely as the differential-test oracle the
//     delta engine must converge byte-identically against.
//   - ShardedAdmission: regionally sharded admission control whose
//     committed-stream state replicates between shards through the same
//     record codec, so admit/reject decisions never serialize on a
//     global mutex.
//
// Determinism contract: engines are pure functions of (Params, the
// Originate/SetNodeUp call sequence, and the round sequence). The only
// randomness is a seeded rand.Rand used for representative fanout
// selection and simulated delta loss, drawn in a fixed iteration order —
// a fixed seed replays bit-for-bit.
package gossip

import (
	"cmp"
	"hash/fnv"
	"math"
	"slices"

	"iqpaths/internal/overlay"
)

// LinkKey identifies one directed logical link in the overlay. Negative
// From values are reserved for non-link namespaces multiplexed onto the
// same gossip channel (see AdmissionKey).
type LinkKey struct {
	From, To overlay.NodeID
}

// compare orders keys canonically (From, then To).
func (k LinkKey) compare(o LinkKey) int {
	if c := cmp.Compare(k.From, o.From); c != 0 {
		return c
	}
	return cmp.Compare(k.To, o.To)
}

func (k LinkKey) less(o LinkKey) bool { return k.compare(o) < 0 }

// AdmissionKey returns the reserved key under which admission shard
// `shard` publishes its committed load on path `path`. The negative From
// keeps the namespace disjoint from real overlay links.
func AdmissionKey(shard, path int) LinkKey {
	return LinkKey{From: overlay.NodeID(-1 - shard), To: overlay.NodeID(path)}
}

// ParseAdmissionKey inverts AdmissionKey, reporting ok=false for keys
// outside the reserved admission namespace.
func ParseAdmissionKey(k LinkKey) (shard, path int, ok bool) {
	if k.From >= 0 || k.To < 0 {
		return 0, 0, false
	}
	return int(-1 - k.From), int(k.To), true
}

// Record is one versioned link-state fact. Conflicts resolve
// last-writer-wins by the (Seq, Origin) tag: Seq values come from the
// origin's Lamport counter (bumped past any tag already seen for the
// key, so a fresh witness always supersedes), and Origin breaks ties.
type Record struct {
	// Key names the link (or reserved namespace entry) this fact is about.
	Key LinkKey
	// Up is the link's believed state.
	Up bool
	// Mbps carries the link's available bandwidth — or, under an
	// AdmissionKey, a shard's committed load. Always finite.
	Mbps float64
	// Ver is an application version that rides along (the overlay
	// topology version for membership records); Table tracks the maximum
	// applied Ver so a node's "believed topology version" falls out.
	Ver int64
	// Origin is the node (or reserved shard id) that witnessed the fact.
	Origin overlay.NodeID
	// Seq is the origin's Lamport sequence for this record.
	Seq uint64
}

// Supersedes reports whether r wins over o under the (Seq, Origin)
// last-writer-wins order.
func (r Record) Supersedes(o Record) bool {
	if r.Seq != o.Seq {
		return r.Seq > o.Seq
	}
	return r.Origin > o.Origin
}

// Digest is a version vector: per origin, the highest sequence this node
// has covered. "Covered" is the anti-entropy contract: a node advertising
// Digest[o] = s holds the last-writer-wins join of every record origin o
// issued with Seq ≤ s (superseded records count as held).
type Digest map[overlay.NodeID]uint64

// Table is one node's link-state database plus its version vector.
// Not safe for concurrent use (even its ordered reads sort pending
// inserts in place); engines own their tables, daemons guard them with
// their own mutex.
//
// Records live in a slice kept in canonical key order, so the ordered
// reads every push and digest reply makes walk it without sorting. A new
// key is appended and merged into place at the next ordered read, so a
// burst of inserts costs one merge rather than one shift per insert.
//
// The version vector is dense: every origin the table has seen gets a
// slot, numbered in first-seen order and never reused, and vv[slot]
// holds that origin and the highest sequence covered for it. Each
// stored record carries its origin's slot in a slice parallel to recs,
// so the delta paths compare r.Seq against a floor indexed by slot
// instead of hashing the origin per record. Origins are interned rather
// than used as indices because they arrive off the wire unchecked:
// memory grows with the number of distinct origins seen, never with an
// origin's value. Digest stays the map form the codec and callers
// exchange.
type Table struct {
	recs    []Record
	slots   []int           // slots[i] is recs[i].Origin's slot
	idx     map[LinkKey]int // key → position in recs
	nSorted int             // recs[:nSorted] is in key order; the rest awaits a merge
	vv      []slotSeq       // by slot
	// slotOf maps each origin seen to its slot once there are more than
	// smallOrigins of them; until then lookup scans vv.
	slotOf map[overlay.NodeID]int
	// byOrigin lists slots in ascending origin order for the ordered
	// walks digest encoding and floorFrom make. It covers
	// vv[:len(byOrigin)]; newer slots are merged in at the next ordered
	// read, as recs are.
	byOrigin []int
	gen      uint64
	maxVer   int64
}

// slotSeq is one version-vector slot: an origin and the highest
// sequence covered for it.
type slotSeq struct {
	origin overlay.NodeID
	seq    uint64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{idx: make(map[LinkKey]int)}
}

// Gen returns the table generation: it increments whenever the table or
// its version vector changes, so an unchanged generation means nothing
// new happened (the delta sender's "anything for this peer?" fast path
// and the digest encoders' cache key).
func (t *Table) Gen() uint64 { return t.gen }

// Len returns the number of live records.
func (t *Table) Len() int { return len(t.recs) }

// MaxVer returns the highest application version applied — for
// membership records, the node's believed overlay topology version.
func (t *Table) MaxVer() int64 { return t.maxVer }

// Get returns the current record for key.
func (t *Table) Get(key LinkKey) (Record, bool) {
	i, ok := t.idx[key]
	if !ok {
		return Record{}, false
	}
	return t.recs[i], true
}

// smallOrigins is how many origins a table finds by scanning vv before
// it builds slotOf: many tables see only a handful.
const smallOrigins = 8

// lookup returns origin o's slot, if it has one.
func (t *Table) lookup(o overlay.NodeID) (int, bool) {
	if t.slotOf != nil {
		s, ok := t.slotOf[o]
		return s, ok
	}
	for s, e := range t.vv {
		if e.origin == o {
			return s, true
		}
	}
	return 0, false
}

// intern returns origin o's slot, giving it the next one on first sight.
func (t *Table) intern(o overlay.NodeID) int {
	if s, ok := t.lookup(o); ok {
		return s
	}
	s := len(t.vv)
	t.vv = append(t.vv, slotSeq{origin: o})
	switch {
	case t.slotOf != nil:
		t.slotOf[o] = s
	case len(t.vv) > smallOrigins:
		t.slotOf = make(map[overlay.NodeID]int, 2*len(t.vv))
		for s, e := range t.vv {
			t.slotOf[e.origin] = s
		}
	}
	return s
}

// seqOf returns the highest sequence covered for origin o (0 if unseen).
func (t *Table) seqOf(o overlay.NodeID) uint64 {
	if s, ok := t.lookup(o); ok {
		return t.vv[s].seq
	}
	return 0
}

// origins returns every slot in ascending origin order, first merging
// slots interned since the last ordered read into place.
func (t *Table) origins() []int {
	n := len(t.byOrigin)
	if n == len(t.vv) {
		return t.byOrigin
	}
	tail := make([]int, len(t.vv)-n)
	for j := range tail {
		tail[j] = n + j
	}
	slices.SortFunc(tail, func(a, b int) int { return cmp.Compare(t.vv[a].origin, t.vv[b].origin) })
	t.byOrigin = append(t.byOrigin, tail...)
	i, k := n-1, len(t.byOrigin)-1
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && t.vv[tail[j]].origin < t.vv[t.byOrigin[i]].origin {
			t.byOrigin[k] = t.byOrigin[i]
			i--
		} else {
			t.byOrigin[k] = tail[j]
			j--
		}
	}
	return t.byOrigin
}

// Apply merges one record last-writer-wins and reports whether the
// table changed. The version vector always advances to cover the
// record's (Origin, Seq) — a superseded record still counts as seen.
// Non-finite Mbps is rejected outright (NaN would poison every
// downstream admission sum, like the monitor windows before PR 2's fix).
func (t *Table) Apply(r Record) bool {
	i, ok := t.idx[r.Key]
	return t.applyAt(r, i, ok)
}

// applyAt is Apply with r.Key's position already found: recs[i] when
// ok, absent otherwise.
func (t *Table) applyAt(r Record, i int, ok bool) bool {
	if math.IsNaN(r.Mbps) || math.IsInf(r.Mbps, 0) {
		return false
	}
	var s int
	if ok && t.recs[i].Origin == r.Origin {
		s = t.slots[i]
	} else {
		s = t.intern(r.Origin)
	}
	if r.Seq > t.vv[s].seq {
		t.vv[s].seq = r.Seq
		t.gen++
	}
	if !ok {
		n := len(t.recs)
		if t.nSorted == n && (n == 0 || t.recs[n-1].Key.less(r.Key)) {
			t.nSorted++ // appended in key order: nothing to merge
		}
		t.idx[r.Key] = n
		t.recs = append(t.recs, r)
		t.slots = append(t.slots, s)
		t.gen++
	} else if cur := t.recs[i]; !r.Supersedes(cur) {
		return false
	} else if cur != r {
		t.recs[i] = r
		t.slots[i] = s
		t.gen++
	}
	if r.Ver > t.maxVer {
		t.maxVer = r.Ver
	}
	return true
}

// applyCursor applies records exactly as Apply does, but finds each key
// by walking forward through the table's sorted records, not by hashing:
// a batch in key order (every delta appendMissing builds) costs one pass.
// A key below the cursor, or possibly among keys awaiting a merge, falls
// back to the index, so any order comes out right.
type applyCursor struct {
	t *Table
	// pos is the first sorted record not below the last key sought.
	pos int
}

func (c *applyCursor) apply(r Record) bool {
	t := c.t
	sorted := t.recs[:t.nSorted] // a new key appended in order extends it
	if c.pos == 0 || sorted[c.pos-1].Key.less(r.Key) {
		for c.pos < len(sorted) && sorted[c.pos].Key.less(r.Key) {
			c.pos++
		}
		found := c.pos < len(sorted) && sorted[c.pos].Key == r.Key
		if found || t.nSorted == len(t.recs) {
			return t.applyAt(r, c.pos, found)
		}
	}
	// Below the cursor, or maybe among the keys awaiting a merge.
	i, ok := t.idx[r.Key]
	return t.applyAt(r, i, ok)
}

// applyAll applies a batch of records through one cursor.
func (t *Table) applyAll(recs []Record) {
	c := applyCursor{t: t}
	for _, r := range recs {
		c.apply(r)
	}
}

// Originate issues a new fact from origin's own table: the sequence is
// bumped past both the origin's own counter and the key's current tag,
// so the new record supersedes whatever any node currently holds.
func (t *Table) Originate(origin overlay.NodeID, key LinkKey, up bool, mbps float64, ver int64) Record {
	seq := t.seqOf(origin)
	if cur, ok := t.Get(key); ok && cur.Seq > seq {
		seq = cur.Seq
	}
	r := Record{Key: key, Up: up, Mbps: mbps, Ver: ver, Origin: origin, Seq: seq + 1}
	t.Apply(r)
	return r
}

// DigestCopy snapshots the version vector. Slots still at 0 (an origin
// seen only on seq-0 records) are left out, as they cover nothing.
func (t *Table) DigestCopy() Digest {
	d := make(Digest, len(t.vv))
	for _, e := range t.vv {
		if e.seq > 0 {
			d[e.origin] = e.seq
		}
	}
	return d
}

// ordered returns the live records in canonical key order, first
// merging keys inserted since the last ordered read into place. The
// slice is the table's own storage: callers copy what they keep.
func (t *Table) ordered() []Record {
	if t.nSorted == len(t.recs) {
		return t.recs
	}
	type slotted struct {
		r Record
		s int
	}
	tail := make([]slotted, len(t.recs)-t.nSorted)
	for j := range tail {
		tail[j] = slotted{t.recs[t.nSorted+j], t.slots[t.nSorted+j]}
	}
	slices.SortFunc(tail, func(a, b slotted) int { return a.r.Key.compare(b.r.Key) })
	// Merge from the back; records left of the last one moved keep their
	// positions, so only the moved suffix is reindexed.
	i, k := t.nSorted-1, len(t.recs)-1
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && tail[j].r.Key.less(t.recs[i].Key) {
			t.recs[k], t.slots[k] = t.recs[i], t.slots[i]
			i--
		} else {
			t.recs[k], t.slots[k] = tail[j].r, tail[j].s
			j--
		}
	}
	for p := i + 1; p < len(t.recs); p++ {
		t.idx[t.recs[p].Key] = p
	}
	t.nSorted = len(t.recs)
	return t.recs
}

// appendMissing appends to dst, in canonical key order, every live
// record whose Seq lies above floor[its origin's slot]; slots past the
// end of floor count as 0.
func (t *Table) appendMissing(dst []Record, floor []uint64) []Record {
	for i, r := range t.ordered() {
		var f uint64
		if s := t.slots[i]; s < len(floor) {
			f = floor[s]
		}
		if r.Seq > f {
			dst = append(dst, r)
		}
	}
	return dst
}

// floorFrom writes into dst, indexed by t's slots, what peer's version
// vector covers of each of t's origins: a merge walk over both tables'
// origin orders, with no per-origin lookup.
func (t *Table) floorFrom(dst []uint64, peer *Table) []uint64 {
	dst = append(dst[:0], make([]uint64, len(t.vv))...)
	mine, theirs := t.origins(), peer.origins()
	for i, j := 0, 0; i < len(mine) && j < len(theirs); {
		s, ps := mine[i], theirs[j]
		switch o, po := t.vv[s].origin, peer.vv[ps].origin; {
		case o < po:
			i++
		case o > po:
			j++
		default:
			dst[s] = peer.vv[ps].seq
			i++
			j++
		}
	}
	return dst
}

// MissingSince returns the live records newer than the peer digest —
// every record whose (Origin, Seq) lies above d[Origin] — in canonical
// key order. This is the anti-entropy reply to a digest that arrived as
// a map (the daemons' /gossip/digest); Mesh answers its own peers
// through the same loop with slot-indexed floors.
func (t *Table) MissingSince(d Digest) []Record {
	floor := make([]uint64, len(t.vv))
	for s, e := range t.vv {
		floor[s] = d[e.origin]
	}
	return t.appendMissing(nil, floor)
}

// Records returns every live record in canonical key order.
func (t *Table) Records() []Record {
	return append([]Record(nil), t.ordered()...)
}

// AppendCanonical appends the table's canonical serialization — every
// record in key order through the wire codec — to dst. Two tables with
// identical canonical bytes hold identical link-state views; this is the
// equality the delta engine is differentially tested against the
// full-flood oracle with.
func (t *Table) AppendCanonical(dst []byte) []byte {
	for _, r := range t.ordered() {
		dst = AppendRecord(dst, r)
	}
	return dst
}

// Hash returns an FNV-1a hash of the canonical serialization.
func (t *Table) Hash() uint64 {
	h := fnv.New64a()
	h.Write(t.AppendCanonical(nil))
	return h.Sum64()
}

// Covers reports whether the table holds rec or something that
// supersedes it at its key — the per-change convergence test.
func (t *Table) Covers(rec Record) bool {
	cur, ok := t.Get(rec.Key)
	if !ok {
		return false
	}
	return cur == rec || cur.Supersedes(rec)
}
