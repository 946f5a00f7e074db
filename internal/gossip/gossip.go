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
type Table struct {
	recs    []Record
	idx     map[LinkKey]int // key → position in recs
	nSorted int             // recs[:nSorted] is in key order; the rest awaits a merge
	vv      Digest
	gen     uint64
	maxVer  int64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{idx: make(map[LinkKey]int), vv: make(Digest)}
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

// Apply merges one record last-writer-wins and reports whether the
// table changed. The version vector always advances to cover the
// record's (Origin, Seq) — a superseded record still counts as seen.
// Non-finite Mbps is rejected outright (NaN would poison every
// downstream admission sum, like the monitor windows before PR 2's fix).
func (t *Table) Apply(r Record) bool {
	if math.IsNaN(r.Mbps) || math.IsInf(r.Mbps, 0) {
		return false
	}
	if r.Seq > t.vv[r.Origin] {
		t.vv[r.Origin] = r.Seq
		t.gen++
	}
	i, ok := t.idx[r.Key]
	if !ok {
		n := len(t.recs)
		if t.nSorted == n && (n == 0 || t.recs[n-1].Key.less(r.Key)) {
			t.nSorted++ // appended in key order: nothing to merge
		}
		t.idx[r.Key] = n
		t.recs = append(t.recs, r)
		t.gen++
	} else if cur := t.recs[i]; !r.Supersedes(cur) {
		return false
	} else if cur != r {
		t.recs[i] = r
		t.gen++
	}
	if r.Ver > t.maxVer {
		t.maxVer = r.Ver
	}
	return true
}

// Originate issues a new fact from origin's own table: the sequence is
// bumped past both the origin's own counter and the key's current tag,
// so the new record supersedes whatever any node currently holds.
func (t *Table) Originate(origin overlay.NodeID, key LinkKey, up bool, mbps float64, ver int64) Record {
	seq := t.vv[origin]
	if cur, ok := t.Get(key); ok && cur.Seq > seq {
		seq = cur.Seq
	}
	r := Record{Key: key, Up: up, Mbps: mbps, Ver: ver, Origin: origin, Seq: seq + 1}
	t.Apply(r)
	return r
}

// DigestCopy snapshots the version vector.
func (t *Table) DigestCopy() Digest {
	d := make(Digest, len(t.vv))
	for o, s := range t.vv {
		d[o] = s
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
	tail := slices.Clone(t.recs[t.nSorted:])
	slices.SortFunc(tail, func(a, b Record) int { return a.Key.compare(b.Key) })
	// Merge from the back; records left of the last one moved keep their
	// positions, so only the moved suffix is reindexed.
	i, k := t.nSorted-1, len(t.recs)-1
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && tail[j].Key.less(t.recs[i].Key) {
			t.recs[k] = t.recs[i]
			i--
		} else {
			t.recs[k] = tail[j]
			j--
		}
	}
	for p := i + 1; p < len(t.recs); p++ {
		t.idx[t.recs[p].Key] = p
	}
	t.nSorted = len(t.recs)
	return t.recs
}

// MissingSince returns the live records newer than the peer digest —
// every record whose (Origin, Seq) lies above d[Origin] — in canonical
// key order. This is both the delta-push payload (d = the sender's
// acked floor for the peer) and the anti-entropy reply (d = the peer's
// advertised digest).
func (t *Table) MissingSince(d Digest) []Record {
	var out []Record
	for _, r := range t.ordered() {
		if r.Seq > d[r.Origin] {
			out = append(out, r)
		}
	}
	return out
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
