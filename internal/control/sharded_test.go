package control

import (
	"fmt"
	"sync"
	"testing"

	"iqpaths/internal/gossip"
	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/stream"
)

// shardedFixture builds n shards, each over two warmed 100 Mbps paths.
func shardedFixture(n int) *ShardedAdmission {
	mons := make([][]*monitor.PathMonitor, n)
	for i := range mons {
		mons[i] = []*monitor.PathMonitor{
			warmMon(fmt.Sprintf("s%d-p0", i), 100, 95, 105),
			warmMon(fmt.Sprintf("s%d-p1", i), 100, 95, 105),
		}
	}
	return NewShardedAdmission(AdmissionOptions{}, mons)
}

func TestShardedRouting(t *testing.T) {
	s := shardedFixture(4)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards())
	}
	// Routing is stable and admits/releases land on the home shard.
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, n := range names {
		home := s.ShardFor(n)
		if home != s.ShardFor(n) {
			t.Fatalf("ShardFor(%q) unstable", n)
		}
		if d := s.Admit(probSpec(n, 10, 0.9)); !d.Admitted {
			t.Fatalf("admit %q: %s", n, d.Reason)
		}
		if got := len(s.Shard(home).Admitted()); got != 1 {
			t.Fatalf("%q not on home shard %d (len=%d)", n, home, got)
		}
		if !s.Release(n) {
			t.Fatalf("release %q failed", n)
		}
	}
}

// TestShardedRemoteLoadReplication: shard A's committed load, replicated
// via Publish/Ingest, must tighten shard B's feasibility test — that is
// the whole point of the gossip channel between shards.
func TestShardedRemoteLoadReplication(t *testing.T) {
	s := shardedFixture(2)
	// Find names homed on shard 0 and shard 1.
	var on0, on1 string
	for i := 0; on0 == "" || on1 == ""; i++ {
		n := fmt.Sprintf("stream-%d", i)
		if s.ShardFor(n) == 0 && on0 == "" {
			on0 = n
		}
		if s.ShardFor(n) == 1 && on1 == "" {
			on1 = n
		}
	}
	// Nearly fill shard 0 (two ~100 Mbps paths).
	if d := s.Admit(probSpec(on0, 170, 0.9)); !d.Admitted {
		t.Fatalf("big stream rejected on empty shard: %s", d.Reason)
	}
	// Before replication, shard 1 knows nothing and would admit large.
	recs := s.Publish(0, 1)
	if len(recs) == 0 {
		t.Fatal("Publish returned no records for a loaded shard")
	}
	s.Ingest(recs)
	if d := s.Admit(probSpec(on1, 170, 0.9)); d.Admitted {
		t.Fatal("shard 1 ignored replicated remote load")
	}
	if d := s.Admit(probSpec(on1, 5, 0.9)); !d.Admitted {
		t.Fatalf("small stream should still fit: %s", d.Reason)
	}
	// Releasing on shard 0 and republishing must free shard 1 again.
	s.Release(on0)
	s.Release(on1)
	s.Ingest(s.Publish(0, 2))
	if d := s.Admit(probSpec(on1, 170, 0.9)); !d.Admitted {
		t.Fatalf("remote load not released after republish: %s", d.Reason)
	}
}

// TestShardedPublishIsDelta: republishing an unchanged shard originates
// nothing — the delta discipline extends to admission replication.
func TestShardedPublishIsDelta(t *testing.T) {
	s := shardedFixture(2)
	s.Admit(probSpec("x", 20, 0.9))
	shard := s.ShardFor("x")
	first := s.Publish(shard, 1)
	if len(first) == 0 {
		t.Fatal("first publish must originate records")
	}
	if again := s.Publish(shard, 2); len(again) != 0 {
		t.Fatalf("unchanged republish originated %d records", len(again))
	}
}

// TestShardedAdmitStress is the -race satellite: concurrent
// admit/release across shards, concurrent rebinds (SetPaths), and a
// gossip goroutine churning mesh membership while replicating
// committed-load records between shards through Publish/Ingest.
func TestShardedAdmitStress(t *testing.T) {
	const shards = 4
	s := shardedFixture(shards)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Admitters: one per shard-ish, distinct name spaces.
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("w%d-%d", w, i%8)
				if d := s.Admit(probSpec(name, 5+float64(i%20), 0.9)); d.Admitted {
					s.Release(name)
				}
				s.Observe(w, i%2, 90+float64(i%20))
			}
		}(w)
	}
	// Rebinder: retargets each shard's monitor set, as a reroute would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sh := i % shards
			s.Shard(sh).SetPaths([]*monitor.PathMonitor{
				warmMon(fmt.Sprintf("rb%d-a", i), 100, 90),
				warmMon(fmt.Sprintf("rb%d-b", i), 100, 110),
			})
		}
	}()
	// Gossip churn: a mesh spreading membership while admission records
	// replicate between shards over the same codec.
	wg.Add(1)
	go func() {
		defer wg.Done()
		mesh := gossip.NewMesh(gossip.Params{Nodes: 64, ClusterSize: 8, LossProb: 0.2, Seed: 5})
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := overlay.NodeID(i % 64)
			mesh.SetNodeUp(n, i%3 != 0)
			mesh.Originate(overlay.NodeID((i+1)%64), gossip.LinkKey{From: n, To: n}, true, 0, i)
			mesh.Round(i)
			recs := s.Publish(int(i%shards), i)
			b := gossip.EncodeDelta(recs)
			parsed, err := gossip.ParseDelta(b)
			if err != nil {
				t.Error(err)
				return
			}
			s.Ingest(parsed)
		}
	}()

	for i := 0; i < 200; i++ {
		s.Admit(stream.Spec{Name: fmt.Sprintf("be-%d", i), Kind: stream.BestEffort})
		s.Release(fmt.Sprintf("be-%d", i))
	}
	close(stop)
	wg.Wait()
}

// BenchmarkShardedAdmit measures admit+release throughput as shard
// count grows. Parallel admitters with disjoint name spaces contend
// only on their home shard's mutex — throughput should scale with
// shards on multicore hosts (on a single-core runner the point is that
// it does not *degrade*).
func BenchmarkShardedAdmit(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := shardedFixture(shards)
			var ctr int64
			var mu sync.Mutex
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				ctr++
				id := ctr
				mu.Unlock()
				i := 0
				for pb.Next() {
					name := fmt.Sprintf("g%d-%d", id, i%4)
					if d := s.Admit(probSpec(name, 5, 0.9)); d.Admitted {
						s.Release(name)
					}
					i++
				}
			})
		})
	}
}
