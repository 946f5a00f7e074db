package control

import (
	"hash/fnv"
	"sync"

	"iqpaths/internal/gossip"
	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
)

// ShardedAdmission is regionally sharded admission control: one
// Admission per region, each with its own mutex and its own monitor
// set, with stream names hashed to a home shard. The admit/reject hot
// path touches only the home shard's lock — shards learn about each
// other's commitments asynchronously, through committed-load records
// replicated over the gossip channel (gossip.AdmissionKey namespace)
// rather than through any global mutex.
type ShardedAdmission struct {
	shards []*Admission
	paths  []int // per-shard path count, for replication vector lengths

	// mu guards only the replication state (tab + seq), never the admit
	// path.
	mu  sync.Mutex
	tab *gossip.Table
}

// NewShardedAdmission builds one admission shard per monitor set. Each
// shard owns its monitors exclusively (PathMonitor is single-owner);
// opt is applied to every shard.
func NewShardedAdmission(opt AdmissionOptions, mons [][]*monitor.PathMonitor) *ShardedAdmission {
	s := &ShardedAdmission{
		shards: make([]*Admission, len(mons)),
		paths:  make([]int, len(mons)),
		tab:    gossip.NewTable(),
	}
	for i, m := range mons {
		s.shards[i] = NewAdmission(opt, m)
		s.paths[i] = len(m)
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedAdmission) Shards() int { return len(s.shards) }

// Shard returns shard i's admission controller (for telemetry wiring or
// direct observation feeds).
func (s *ShardedAdmission) Shard(i int) *Admission { return s.shards[i] }

// ShardFor returns the home shard for a stream name (FNV-1a hash).
func (s *ShardedAdmission) ShardFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Admit routes the spec to its home shard's feasibility test. Only that
// shard's mutex is taken.
func (s *ShardedAdmission) Admit(spec stream.Spec) Decision {
	return s.shards[s.ShardFor(spec.Name)].Admit(spec)
}

// Release withdraws a stream from its home shard.
func (s *ShardedAdmission) Release(name string) bool {
	return s.shards[s.ShardFor(name)].Release(name)
}

// Observe feeds one bandwidth sample to path j of shard i.
func (s *ShardedAdmission) Observe(shard, j int, mbps float64) {
	if shard >= 0 && shard < len(s.shards) {
		s.shards[shard].Observe(j, mbps)
	}
}

// Publish snapshots shard i's committed per-path load into the
// replication table and returns the freshly originated records — the
// payload a daemon pushes onto the gossip channel. ver tags the records
// with an application version (a tick or topology version).
func (s *ShardedAdmission) Publish(shard int, ver int64) []gossip.Record {
	load := s.shards[shard].CommittedLoad()
	s.mu.Lock()
	recs := make([]gossip.Record, 0, len(load))
	for j, mbps := range load {
		key := gossip.AdmissionKey(shard, j)
		if cur, ok := s.tab.Get(key); ok && cur.Mbps == mbps {
			continue // unchanged paths publish nothing — delta discipline
		}
		recs = append(recs, s.tab.Originate(key.From, key, true, mbps, ver))
	}
	if len(recs) == 0 {
		s.mu.Unlock()
		return recs
	}
	// The origination just changed the replication table, so co-located
	// shards see the new load now rather than at the next Ingest (whose
	// Apply of these same records would report no change).
	remote := s.remoteLocked()
	s.mu.Unlock()
	s.setRemote(remote)
	return recs
}

// Ingest merges replicated committed-load records (local or from remote
// daemons) and re-derives every shard's remote vector: for shard k,
// remote[j] is the sum of every other shard's published load on path j.
// It returns how many records changed the table; skipped records and
// ones that lose last-writer-wins do not count.
func (s *ShardedAdmission) Ingest(recs []gossip.Record) int {
	s.mu.Lock()
	applied := 0
	for _, r := range recs {
		if shard, _, ok := gossip.ParseAdmissionKey(r.Key); !ok || shard >= len(s.shards) {
			continue // not an admission record, or a shard we don't host
		}
		if s.tab.Apply(r) {
			applied++
		}
	}
	if applied == 0 {
		s.mu.Unlock()
		return 0
	}
	remote := s.remoteLocked()
	s.mu.Unlock()
	s.setRemote(remote)
	return applied
}

// remoteLocked rebuilds each shard's view of foreign load from the
// replication table: for shard k, remote[k][j] sums every other shard's
// published load on path j. Caller holds s.mu.
func (s *ShardedAdmission) remoteLocked() [][]float64 {
	remote := make([][]float64, len(s.shards))
	for k := range remote {
		remote[k] = make([]float64, s.paths[k])
	}
	for _, r := range s.tab.Records() {
		shard, path, ok := gossip.ParseAdmissionKey(r.Key)
		if !ok {
			continue
		}
		for k := range remote {
			if k != shard && path < len(remote[k]) {
				remote[k][path] += r.Mbps
			}
		}
	}
	return remote
}

// setRemote hands the rebuilt vectors over shard by shard, outside s.mu
// (each shard takes its own lock).
func (s *ShardedAdmission) setRemote(remote [][]float64) {
	for k, load := range remote {
		s.shards[k].SetRemoteCommitted(load)
	}
}

// ReplicaRecords returns the full replication table in canonical order —
// what a daemon answers an anti-entropy digest with.
// testonly: cmd/iqpathsd's handler tests compare the digest and delta they
// serve against the full table.
func (s *ShardedAdmission) ReplicaRecords() []gossip.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Records()
}

// Digest summarizes the replication table per origin — what a daemon
// offers a peer when asking for repair.
func (s *ShardedAdmission) Digest() gossip.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.DigestCopy()
}

// DeltaSince returns the records a peer advertising digest d is missing.
func (s *ShardedAdmission) DeltaSince(d gossip.Digest) []gossip.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.MissingSince(d)
}
