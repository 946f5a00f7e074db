package gossip

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"iqpaths/internal/overlay"
)

// randomRecord draws a record over a small key and origin space, so
// batches repeat keys and tags collide.
func randomRecord(rng *rand.Rand, keys int) Record {
	return Record{
		Key:    LinkKey{From: overlay.NodeID(rng.Intn(keys) - keys/4), To: overlay.NodeID(rng.Intn(4))},
		Up:     rng.Intn(2) == 0,
		Mbps:   float64(rng.Intn(50)),
		Ver:    int64(rng.Intn(40)),
		Origin: overlay.NodeID(rng.Intn(6) - 2),
		Seq:    uint64(rng.Intn(12)),
	}
}

// randomBatch draws a delta batch: sorted in canonical key order (as
// appendMissing builds every delta), sorted with a few records swapped
// out of place, or shuffled; with non-finite Mbps and keys the receiver
// has never seen mixed in.
func randomBatch(rng *rand.Rand, keys int) []Record {
	batch := make([]Record, rng.Intn(40))
	for i := range batch {
		batch[i] = randomRecord(rng, keys+8) // some keys new to the receiver
		switch rng.Intn(12) {
		case 0:
			batch[i].Mbps = math.NaN()
		case 1:
			batch[i].Mbps = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	switch rng.Intn(3) {
	case 0:
		slices.SortStableFunc(batch, func(a, b Record) int { return a.Key.compare(b.Key) })
	case 1:
		slices.SortStableFunc(batch, func(a, b Record) int { return a.Key.compare(b.Key) })
		for k := rng.Intn(3) + 1; k > 0 && len(batch) > 1; k-- {
			i, j := rng.Intn(len(batch)), rng.Intn(len(batch))
			batch[i], batch[j] = batch[j], batch[i]
		}
	default:
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	}
	return batch
}

// TestApplyCursorMatchesApply is the cursor's differential: two tables
// built by the same record sequence take the same batches, one through
// an Apply loop and one through an applyCursor, and must agree on every
// record's changed result and, after each batch, on canonical bytes,
// generation, maximum version, version vector and every key's lookup.
// Half the tables enter a batch with keys still awaiting their merge.
func TestApplyCursorMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 400; trial++ {
		keys := 4 + rng.Intn(30)
		ref, cur := NewTable(), NewTable()
		for i := rng.Intn(60); i > 0; i-- {
			r := randomRecord(rng, keys)
			ref.Apply(r)
			cur.Apply(r)
		}
		for b := 0; b < 4; b++ {
			if rng.Intn(2) == 0 {
				ref.ordered()
				cur.ordered()
			}
			batch := randomBatch(rng, keys)
			c := applyCursor{t: cur}
			for i, r := range batch {
				if want, got := ref.Apply(r), c.apply(r); got != want {
					t.Fatalf("trial %d batch %d record %d (%+v): cursor changed=%v, Apply %v", trial, b, i, r, got, want)
				}
			}
			if ref.Gen() != cur.Gen() || ref.MaxVer() != cur.MaxVer() {
				t.Fatalf("trial %d batch %d: gen/maxVer %d/%d, want %d/%d", trial, b, cur.Gen(), cur.MaxVer(), ref.Gen(), ref.MaxVer())
			}
			if !reflect.DeepEqual(cur.DigestCopy(), ref.DigestCopy()) {
				t.Fatalf("trial %d batch %d: digest %v, want %v", trial, b, cur.DigestCopy(), ref.DigestCopy())
			}
			if !bytes.Equal(cur.AppendCanonical(nil), ref.AppendCanonical(nil)) {
				t.Fatalf("trial %d batch %d: canonical bytes differ", trial, b)
			}
			for _, r := range ref.Records() {
				if got, ok := cur.Get(r.Key); !ok || got != r {
					t.Fatalf("trial %d batch %d: Get(%v) = %+v, %v; want %+v", trial, b, r.Key, got, ok, r)
				}
			}
		}
	}
}

// bruteStats recomputes an engine's convergence accounting the way
// afterRound did before it remembered covered nodes: every round, every
// in-flight change against every up node's table.
type bruteStats struct {
	*Mesh
	inflight []inflightChange
	want     Stats
	t        *testing.T
}

func (b *bruteStats) Originate(origin overlay.NodeID, key LinkKey, up bool, mbps float64, ver int64) Record {
	rec := b.Mesh.Originate(origin, key, up, mbps, ver)
	b.inflight = append(b.inflight, inflightChange{rec: rec, start: int64(b.want.Rounds)})
	return rec
}

func (b *bruteStats) Round(now int64) {
	b.Mesh.Round(now)
	b.rescan()
	got := b.Stats()
	s := &b.want
	s.Messages, s.Bytes, s.DigestBytes = got.Messages, got.Bytes, got.DigestBytes
	if got != *s {
		b.t.Fatalf("round %d: stats\n got %+v\nwant %+v (brute-force rescan)", now, got, *s)
	}
}

func (b *bruteStats) rescan() {
	topo, s := b.Topology(), &b.want
	s.Rounds++
	if len(b.inflight) == 0 {
		return
	}
	kept := b.inflight[:0]
	for _, f := range b.inflight {
		done := true
		for i := 0; i < topo.Len(); i++ {
			if topo.Up(overlay.NodeID(i)) && !b.Table(overlay.NodeID(i)).Covers(f.rec) {
				done = false
				break
			}
		}
		if !done {
			kept = append(kept, f)
			continue
		}
		d := int64(s.Rounds) - f.start
		s.Converges++
		s.SumConvRounds += uint64(d)
		s.MaxConvRounds = max(s.MaxConvRounds, d)
	}
	b.inflight = kept
	for i := 0; i < topo.Len(); i++ {
		if !topo.Up(overlay.NodeID(i)) {
			continue
		}
		s.UpNodeRounds++
		for _, f := range b.inflight {
			if !b.Table(overlay.NodeID(i)).Covers(f.rec) {
				s.StaleNodeRounds++
				break
			}
		}
	}
}

// TestMeshStatsMatchBruteForce: the covered-node bitsets leave every
// convergence statistic where a full rescan of every table puts it,
// round by round, on lossy runs with membership churn.
func TestMeshStatsMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{3, 19, 77} {
		b := &bruteStats{Mesh: NewMesh(Params{Nodes: 90, LossProb: 0.3, Seed: seed}), t: t}
		churnScript{nodes: 90, events: 40, rounds: 100, drain: 20, seed: seed}.run(b)
		if s := b.Stats(); s.Converges == 0 || s.StaleNodeRounds == 0 {
			t.Fatalf("seed %d: run too quiet to compare: %+v", seed, s)
		}
	}
}
