package gossip

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"iqpaths/internal/overlay"
)

// randomTable applies n random records drawn from a small pool of
// negative and non-negative origins, a fifth of them at seq 0, and
// returns the table with the reference version vector those records
// imply (per origin, the highest Seq applied; origins seen only at seq 0
// absent, as the map form never held them).
func randomTable(rng *rand.Rand, n int) (*Table, Digest) {
	tab, want := NewTable(), Digest{}
	origins := []overlay.NodeID{-300, -5, -1, 0, 1, 2, 7, 64, 127, 128, 1 << 20}
	for i := 0; i < n; i++ {
		r := Record{
			Key:    LinkKey{From: overlay.NodeID(rng.Intn(10) - 3), To: overlay.NodeID(rng.Intn(10))},
			Up:     rng.Intn(2) == 0,
			Mbps:   float64(rng.Intn(100)),
			Origin: origins[rng.Intn(len(origins))],
			Seq:    uint64(rng.Intn(30)),
		}
		if rng.Intn(5) == 0 {
			r.Seq = 0
		}
		tab.Apply(r)
		if r.Seq > want[r.Origin] {
			want[r.Origin] = r.Seq
		}
	}
	return tab, want
}

// TestTableDigestEncodingExact: the digest the mesh encodes straight
// from a table's slots is byte-equal to the canonical encoding of the
// map form, and the map form is the version vector the applied records
// imply, on 200 random tables.
func TestTableDigestEncodingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		tab, want := randomTable(rng, rng.Intn(60))
		d := tab.DigestCopy()
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("trial %d: DigestCopy = %v, want %v", trial, d, want)
		}
		if got, ref := appendTableDigest(nil, tab), EncodeDigest(d); !bytes.Equal(got, ref) {
			t.Fatalf("trial %d: table digest %x, want %x", trial, got, ref)
		}
	}
}

// TestMissingSinceMatchesMapFilter checks both translations into slot
// floors against the map-based filter they replace: MissingSince on
// random digests (naming origins the table never saw, and zero
// entries), and the mesh exchange path, which reads the peer table's
// vector directly.
func TestMissingSinceMatchesMapFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	filter := func(tab *Table, d Digest) []Record {
		var out []Record
		for _, r := range tab.Records() {
			if r.Seq > d[r.Origin] {
				out = append(out, r)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		tab, _ := randomTable(rng, rng.Intn(60))
		d := Digest{}
		for i := rng.Intn(8); i > 0; i-- {
			d[overlay.NodeID(rng.Intn(400)-200)] = uint64(rng.Intn(30))
		}
		d[overlay.NodeID(rng.Intn(3))] = 0
		if got, want := tab.MissingSince(d), filter(tab, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MissingSince(%v) = %v, want %v", trial, d, got, want)
		}
		peer, _ := randomTable(rng, rng.Intn(60))
		got := tab.appendMissing(nil, tab.floorFrom(nil, peer))
		if want := filter(tab, peer.DigestCopy()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: missing against peer table = %v, want %v", trial, got, want)
		}
	}
}

// roundHook passes every call through to its Engine and reports the
// running Stats after each round.
type roundHook struct {
	Engine
	after func(Stats)
}

func (h roundHook) Round(now int64) {
	h.Engine.Round(now)
	h.after(h.Engine.Stats())
}

// TestMeshChurnGolden pins the mesh's wire accounting and outcomes to
// figures recorded from the map-keyed version vector it replaced: an
// FNV-1a fold of each round's (Messages, Bytes, DigestBytes, Converges,
// SumConvRounds, StaleNodeRounds), a fold of every node's final table
// Hash, and the final Stats, on seeds 1, 7 and 42.
func TestMeshChurnGolden(t *testing.T) {
	const nodes = 150
	for _, g := range []struct {
		seed           int64
		rounds, tables uint64
		final          Stats
	}{
		{seed: 1, rounds: 0xce20e8e65d32cd07, tables: 0x59f3c4e26a632855, final: Stats{Rounds: 72, Messages: 13946, Bytes: 846130, DigestBytes: 471029, Converges: 55, SumConvRounds: 239, MaxConvRounds: 9, StaleNodeRounds: 3988, UpNodeRounds: 8855}},
		{seed: 7, rounds: 0x92c42b946decc4f5, tables: 0x9c04239f424c264d, final: Stats{Rounds: 81, Messages: 16818, Bytes: 927204, DigestBytes: 494315, Converges: 64, SumConvRounds: 255, MaxConvRounds: 6, StaleNodeRounds: 4726, UpNodeRounds: 9852}},
		{seed: 42, rounds: 0xc93d1208c801190, tables: 0xf00c37faf05a9fa5, final: Stats{Rounds: 70, Messages: 13782, Bytes: 852969, DigestBytes: 456931, Converges: 59, SumConvRounds: 254, MaxConvRounds: 8, StaleNodeRounds: 4586, UpNodeRounds: 8186}},
	} {
		m := NewMesh(Params{Nodes: nodes, LossProb: 0.2, Seed: g.seed})
		rh := fnv.New64a()
		var buf []byte
		hook := roundHook{Engine: m, after: func(s Stats) {
			buf = buf[:0]
			for _, v := range []uint64{s.Messages, s.Bytes, s.DigestBytes, s.Converges, s.SumConvRounds, s.StaleNodeRounds} {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			rh.Write(buf)
		}}
		churnScript{nodes: nodes, events: 30, rounds: 120, drain: 16, seed: g.seed}.run(hook)
		th := fnv.New64a()
		for i := 0; i < nodes; i++ {
			th.Write(binary.LittleEndian.AppendUint64(nil, m.Table(overlay.NodeID(i)).Hash()))
		}
		if got := rh.Sum64(); got != g.rounds {
			t.Errorf("seed %d: per-round stats fold %#x, want %#x", g.seed, got, g.rounds)
		}
		if got := th.Sum64(); got != g.tables {
			t.Errorf("seed %d: table hash fold %#x, want %#x", g.seed, got, g.tables)
		}
		if got := m.Stats(); got != g.final {
			t.Errorf("seed %d: final stats\n got %+v\nwant %+v", g.seed, got, g.final)
		}
	}
}

// hostileOrigins are origin values a wire-parsed record may carry
// unchecked: a table must intern them, never index by them.
var hostileOrigins = []overlay.NodeID{1 << 62, -1 << 62, math.MinInt64}

// TestApplyHostileOriginsStaysSmall: applying records whose origins sit
// at the extremes of the id range neither panics nor allocates in
// proportion to the origin values, and the version vector still
// round-trips them through DigestCopy, the digest codec and
// MissingSince.
func TestApplyHostileOriginsStaysSmall(t *testing.T) {
	recs := make([]Record, len(hostileOrigins))
	for i, o := range hostileOrigins {
		recs[i] = Record{Key: AdmissionKey(i, 0), Up: true, Mbps: 5, Origin: o, Seq: uint64(i + 1)}
	}
	fill := func() *Table {
		tab := NewTable()
		for _, r := range recs {
			tab.Apply(r)
		}
		return tab
	}
	if allocs := testing.AllocsPerRun(20, func() { fill() }); allocs > 24 {
		t.Fatalf("filling a table with %d hostile origins cost %.0f allocations", len(recs), allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := fill()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("filling a table with %d hostile origins allocated %d bytes", len(recs), grew)
	}

	d := tab.DigestCopy()
	want := Digest{}
	for _, r := range recs {
		want[r.Origin] = r.Seq
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("DigestCopy = %v, want %v", d, want)
	}
	if parsed, err := ParseDigest(appendTableDigest(nil, tab)); err != nil || !reflect.DeepEqual(parsed, want) {
		t.Fatalf("table digest parses to %v, %v; want %v", parsed, err, want)
	}
	if got := tab.MissingSince(d); len(got) != 0 {
		t.Fatalf("MissingSince(own digest) = %v, want none", got)
	}
	if got := tab.MissingSince(nil); !reflect.DeepEqual(got, tab.Records()) {
		t.Fatalf("MissingSince(empty) = %v, want every record", got)
	}
	d[math.MinInt64]--
	if got := tab.MissingSince(d); len(got) != 1 || got[0].Origin != math.MinInt64 {
		t.Fatalf("MissingSince with MinInt64 one behind = %v, want its record alone", got)
	}
}

// TestApplyManyOriginsLinear: interning a burst of distinct origins
// costs the same per origin whichever order they arrive in and however
// many there are. A flood of records at one key, each from a new
// origin, is what a single hostile push can carry; keeping origins
// sorted on every insert would make the descending burst quadratic
// (each new origin shifting every slot before it), and finding origins
// by a scan would make any large burst quadratic.
func TestApplyManyOriginsLinear(t *testing.T) {
	const n = 1 << 17
	fill := func(n int, descending bool) (*Table, time.Duration) {
		tab := NewTable()
		start := time.Now()
		for i := 0; i < n; i++ {
			o := overlay.NodeID(i)
			if descending {
				o = overlay.NodeID(n - 1 - i)
			}
			tab.Apply(Record{Key: AdmissionKey(0, 0), Up: true, Mbps: 1, Origin: o, Seq: 1})
		}
		return tab, time.Since(start)
	}
	asc, ascTime := fill(n, false)
	desc, descTime := fill(n, true)
	if descTime > 4*ascTime && descTime > 250*time.Millisecond {
		t.Fatalf("%d descending origins took %v, ascending %v", n, descTime, ascTime)
	}
	small := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		_, d := fill(n/16, true)
		small = min(small, d)
	}
	if descTime > 8*16*small && descTime > 250*time.Millisecond {
		t.Fatalf("%d descending origins took %v, %d took %v", n, descTime, n/16, small)
	}
	for _, tab := range []*Table{asc, desc} {
		if d := tab.DigestCopy(); len(d) != n {
			t.Fatalf("digest covers %d origins, want %d", len(d), n)
		}
		if got, want := appendTableDigest(nil, tab), EncodeDigest(tab.DigestCopy()); !bytes.Equal(got, want) {
			t.Fatal("table digest differs from the encoded map form")
		}
	}
}
