package gossip

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iqpaths/internal/overlay"
)

func TestApplyLastWriterWins(t *testing.T) {
	tab := NewTable()
	key := LinkKey{From: 1, To: 2}
	old := Record{Key: key, Up: true, Mbps: 80, Ver: 1, Origin: 1, Seq: 5}
	if !tab.Apply(old) {
		t.Fatal("first apply must change the table")
	}
	stale := Record{Key: key, Up: false, Mbps: 10, Ver: 2, Origin: 1, Seq: 3}
	if tab.Apply(stale) {
		t.Fatal("lower seq from same origin must lose")
	}
	if got, _ := tab.Get(key); got != old {
		t.Fatalf("table holds %+v, want %+v", got, old)
	}
	// Same seq: higher origin breaks the tie.
	tie := Record{Key: key, Up: false, Mbps: 20, Ver: 2, Origin: 3, Seq: 5}
	if !tab.Apply(tie) {
		t.Fatal("same seq, higher origin must win")
	}
	newer := Record{Key: key, Up: true, Mbps: 90, Ver: 3, Origin: 2, Seq: 6}
	if !tab.Apply(newer) {
		t.Fatal("higher seq must win")
	}
	if tab.MaxVer() != 3 {
		t.Fatalf("MaxVer = %d, want 3", tab.MaxVer())
	}
}

func TestApplyRejectsNonFinite(t *testing.T) {
	tab := NewTable()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if tab.Apply(Record{Key: LinkKey{1, 2}, Mbps: bad, Origin: 1, Seq: 1}) {
			t.Fatalf("non-finite Mbps %v must be rejected", bad)
		}
	}
	if tab.Len() != 0 || len(tab.vv) != 0 {
		t.Fatal("rejected records must not touch table or version vector")
	}
}

// TestApplyAdvancesVVOnSupersededRecord checks the coverage contract: a
// record that loses the LWW race still advances the version vector (it
// was seen), and the generation bumps so digest caches refresh.
func TestApplyAdvancesVVOnSupersededRecord(t *testing.T) {
	tab := NewTable()
	key := LinkKey{From: 1, To: 2}
	tab.Apply(Record{Key: key, Up: true, Mbps: 80, Origin: 2, Seq: 9})
	gen := tab.Gen()
	stale := Record{Key: key, Up: false, Mbps: 1, Origin: 1, Seq: 4}
	if tab.Apply(stale) {
		t.Fatal("superseded record must not change the table")
	}
	if tab.seqOf(1) != 4 {
		t.Fatalf("vv[1] = %d, want 4 (seen even though superseded)", tab.seqOf(1))
	}
	if tab.Gen() == gen {
		t.Fatal("generation must advance on a vv-only change")
	}
	if !tab.Covers(stale) {
		t.Fatal("superseding record must cover the stale one")
	}
}

// TestOriginateSupersedesForeignTag exercises the Lamport bump: a node
// whose own counter is far behind the key's current tag must still
// originate a record that wins.
func TestOriginateSupersedesForeignTag(t *testing.T) {
	tab := NewTable()
	key := LinkKey{From: 3, To: 4}
	tab.Apply(Record{Key: key, Up: true, Mbps: 50, Origin: 9, Seq: 1000})
	rec := tab.Originate(1, key, false, 0, 7)
	if rec.Seq != 1001 {
		t.Fatalf("Seq = %d, want 1001 (bumped past the current tag)", rec.Seq)
	}
	if got, _ := tab.Get(key); got != rec {
		t.Fatal("originated record must immediately own its key")
	}
	if !rec.Supersedes(Record{Origin: 9, Seq: 1000}) {
		t.Fatal("fresh origination must supersede the previous holder")
	}
}

// TestMissingSinceSoundness: after transferring MissingSince(peer vv)
// into the peer, the peer covers the sender's version vector exactly —
// the induction step the whole delta protocol rests on.
func TestMissingSinceSoundness(t *testing.T) {
	a, b := NewTable(), NewTable()
	a.Originate(1, LinkKey{1, 2}, true, 10, 1)
	a.Originate(1, LinkKey{1, 3}, true, 20, 2)
	a.Originate(2, LinkKey{2, 3}, true, 30, 3)
	a.Originate(1, LinkKey{1, 2}, false, 0, 4) // supersedes seq 1 at its own key
	b.Originate(3, LinkKey{3, 4}, true, 40, 1)

	for _, r := range a.MissingSince(b.DigestCopy()) {
		b.Apply(r)
	}
	for o, s := range a.DigestCopy() {
		if b.seqOf(o) < s {
			t.Fatalf("after transfer, b.vv[%d] = %d < a's %d", o, b.seqOf(o), s)
		}
	}
	for _, r := range a.Records() {
		if !b.Covers(r) {
			t.Fatalf("b does not cover transferred record %+v", r)
		}
	}
	if len(a.MissingSince(b.DigestCopy())) != 0 {
		t.Fatal("nothing must remain missing after one full transfer")
	}
}

func TestCanonicalBytesEquality(t *testing.T) {
	a, b := NewTable(), NewTable()
	recs := []Record{
		{Key: LinkKey{2, 3}, Up: true, Mbps: 30, Ver: 2, Origin: 2, Seq: 1},
		{Key: LinkKey{1, 2}, Up: false, Mbps: 10, Ver: 1, Origin: 1, Seq: 1},
		{Key: AdmissionKey(0, 1), Up: true, Mbps: 55.5, Ver: 3, Origin: -1, Seq: 2},
	}
	for _, r := range recs {
		a.Apply(r)
	}
	for i := len(recs) - 1; i >= 0; i-- { // reverse arrival order
		b.Apply(recs[i])
	}
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("same record set in different arrival order must serialize identically")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hashes must match too")
	}
}

func TestAdmissionKeyRoundTrip(t *testing.T) {
	for _, tc := range []struct{ shard, path int }{{0, 0}, {3, 7}, {15, 0}} {
		k := AdmissionKey(tc.shard, tc.path)
		if k.From >= 0 {
			t.Fatalf("AdmissionKey(%d,%d).From = %d, want negative", tc.shard, tc.path, k.From)
		}
		s, p, ok := ParseAdmissionKey(k)
		if !ok || s != tc.shard || p != tc.path {
			t.Fatalf("ParseAdmissionKey(AdmissionKey(%d,%d)) = %d,%d,%v", tc.shard, tc.path, s, p, ok)
		}
	}
	if _, _, ok := ParseAdmissionKey(LinkKey{From: 1, To: 2}); ok {
		t.Fatal("link-namespace keys must not parse as admission keys")
	}
}

func TestTopologyRepresentatives(t *testing.T) {
	topo := NewTopology(10, 4) // clusters {0..3} {4..7} {8,9}
	if topo.Clusters() != 3 {
		t.Fatalf("Clusters = %d, want 3", topo.Clusters())
	}
	if r, ok := topo.Rep(1); !ok || r != 4 {
		t.Fatalf("Rep(1) = %d,%v, want 4", r, ok)
	}
	// Representative fails over to the next-lowest up member, no protocol.
	topo.SetUp(4, false)
	if r, ok := topo.Rep(1); !ok || r != 5 {
		t.Fatalf("Rep(1) after 4 down = %d,%v, want 5", r, ok)
	}
	if !topo.IsRep(5) || topo.IsRep(4) {
		t.Fatal("IsRep must track the failover")
	}
	// Whole cluster down: no representative, ring skips it.
	topo.SetUp(8, false)
	topo.SetUp(9, false)
	if _, ok := topo.Rep(2); ok {
		t.Fatal("dead cluster must have no representative")
	}
	if next, ok := topo.NextRep(1); !ok || next != 0 {
		t.Fatalf("NextRep(1) = %d,%v, want 0 (skipping dead cluster 2)", next, ok)
	}
	got := topo.Members(1, nil)
	want := []overlay.NodeID{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Members(1) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Members(1) = %v, want %v", got, want)
		}
	}
}

// TestTableArrivalOrderInvariant builds tables from shuffled Apply
// orders of one record set, some reading in key order between inserts
// so new keys merge into a partly sorted table, and checks every read
// agrees: Records, canonical bytes, Hash, Get, Covers, and MissingSince,
// which must come back in key order.
func TestTableArrivalOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var recs []Record
	for i := 0; i < 300; i++ {
		recs = append(recs, Record{
			Key:    LinkKey{From: overlay.NodeID(rng.Intn(12) - 2), To: overlay.NodeID(rng.Intn(12))},
			Up:     rng.Intn(2) == 0,
			Mbps:   float64(rng.Intn(100)),
			Origin: overlay.NodeID(rng.Intn(5)),
			Seq:    uint64(1 + rng.Intn(40)),
		})
	}
	digest := Digest{0: 10, 1: 20, 3: 35}
	var ref *Table
	for trial := 0; trial < 12; trial++ {
		tab := NewTable()
		readEvery := trial % 4 // 0: never read while inserting
		for i, j := range rng.Perm(len(recs)) {
			tab.Apply(recs[j])
			if readEvery > 0 && i%readEvery == 0 {
				tab.MissingSince(digest)
			}
		}
		miss := tab.MissingSince(digest)
		for i := 1; i < len(miss); i++ {
			if !miss[i-1].Key.less(miss[i].Key) {
				t.Fatalf("trial %d: MissingSince out of key order at %d: %v then %v", trial, i, miss[i-1].Key, miss[i].Key)
			}
		}
		if ref == nil {
			ref = tab
			continue
		}
		if !reflect.DeepEqual(tab.Records(), ref.Records()) {
			t.Fatalf("trial %d: Records differ", trial)
		}
		if !bytes.Equal(tab.AppendCanonical(nil), ref.AppendCanonical(nil)) || tab.Hash() != ref.Hash() {
			t.Fatalf("trial %d: canonical bytes differ", trial)
		}
		if !reflect.DeepEqual(miss, ref.MissingSince(digest)) {
			t.Fatalf("trial %d: MissingSince differs", trial)
		}
		for _, r := range recs {
			got, ok := tab.Get(r.Key)
			want, wantOK := ref.Get(r.Key)
			if got != want || ok != wantOK || !ok {
				t.Fatalf("trial %d: Get(%v) = %+v,%v, want %+v,%v", trial, r.Key, got, ok, want, wantOK)
			}
			if tab.Covers(r) != ref.Covers(r) || !tab.Covers(r) {
				t.Fatalf("trial %d: Covers(%+v) disagrees or fails", trial, r)
			}
		}
	}
	if ref.Len() < 50 {
		t.Fatalf("only %d distinct keys; the test needs a larger table", ref.Len())
	}
}
