package gossip

import (
	"math/rand"

	"iqpaths/internal/overlay"
)

// encCache caches one node's canonical full-table message (and the
// sorted record slice behind it) keyed by table generation, so the
// flood oracle stays runnable at thousands of nodes: quiet rounds
// charge cached lengths and skip re-encoding entirely.
type encCache struct {
	gen   uint64
	buf   []byte
	recs  []Record
	valid bool
}

// FullFlood is the differential-test oracle: the same clustered send
// schedule as Mesh, but every message is the sender's entire table and
// nothing is ever lost. It is what `internal/control` used to do at
// small scale, kept as the semantics the delta engine must match
// byte-for-byte — and as the cost baseline the delta engine must beat
// sublinearly.
type FullFlood struct {
	*engineCore
	p      Params
	rng    *rand.Rand
	merged map[pairKey]uint64 // receiver's last-merged sender generation

	repScratch []overlay.NodeID
	memScratch []overlay.NodeID
	enc        []encCache
}

// NewFullFlood builds the flood oracle over the same Params shape as
// NewMesh. Fanout applies (same schedule); LossProb and
// AntiEntropyEvery are ignored — the oracle is lossless and needs no
// repair channel.
func NewFullFlood(p Params) *FullFlood {
	p = p.withDefaults()
	return &FullFlood{
		engineCore: newEngineCore(p.Nodes, p.ClusterSize),
		p:          p,
		rng:        rand.New(rand.NewSource(p.Seed)),
		merged:     make(map[pairKey]uint64),
		enc:        make([]encCache, p.Nodes),
	}
}

// Round floods full tables along the member-star, ring, and fanout
// edges. The now argument is unused (no anti-entropy rotation); it is
// accepted so both engines run under one driver.
func (f *FullFlood) Round(now int64) {
	_ = now
	t := f.topo
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		f.memScratch = t.Members(c, f.memScratch[:0])
		for _, mem := range f.memScratch {
			if mem != rep {
				f.send(mem, rep)
			}
		}
	}
	f.repScratch = t.Reps(f.repScratch[:0])
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		if next, ok := t.NextRep(c); ok {
			f.send(rep, next)
		}
		if len(f.repScratch) > 1 {
			for i := 0; i < f.p.Fanout; i++ {
				tgt := f.repScratch[f.rng.Intn(len(f.repScratch))]
				if tgt != rep {
					f.send(rep, tgt)
				}
			}
		}
	}
	for c := 0; c < t.Clusters(); c++ {
		rep, ok := t.Rep(c)
		if !ok {
			continue
		}
		f.memScratch = t.Members(c, f.memScratch[:0])
		for _, mem := range f.memScratch {
			if mem != rep {
				f.send(rep, mem)
			}
		}
	}
	f.afterRound()
}

// send charges the sender's full table on the wire every time, but only
// merges when the sender's table actually changed since the receiver
// last merged it — a pure optimization, since re-applying an unchanged
// table is a no-op under last-writer-wins.
func (f *FullFlood) send(from, to overlay.NodeID) {
	ec := f.cachedEnc(from)
	f.stats.Messages++
	f.stats.Bytes += uint64(len(ec.buf))
	k := pairKey{from, to}
	if g, ok := f.merged[k]; ok && g == ec.gen {
		return
	}
	dst := f.tabs[to]
	for _, r := range ec.recs {
		dst.Apply(r)
	}
	f.merged[k] = ec.gen
}

func (f *FullFlood) cachedEnc(n overlay.NodeID) *encCache {
	ec := &f.enc[n]
	tab := f.tabs[n]
	if !ec.valid || ec.gen != tab.Gen() {
		ec.recs = append(ec.recs[:0], tab.ordered()...)
		ec.buf = appendDelta(ec.buf[:0], ec.recs)
		ec.gen = tab.Gen()
		ec.valid = true
	}
	return ec
}
