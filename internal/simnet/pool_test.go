package simnet

import (
	"strings"
	"sync"
	"testing"
)

// TestArenaCrossShardHandOff is the regression test for the per-shard
// arena accounting: packets acquired by shard A's arena and released by
// shard B (a cross-shard offer or relay hand-off) must credit A, so
// neither arena leaks outstanding packets and neither goes negative.
func TestArenaCrossShardHandOff(t *testing.T) {
	var a, b Arena
	const n = 1000

	// Shard A acquires; half its packets pass to shard B, which
	// releases them. Meanwhile B acquires its own and hands half to A.
	// Concurrency mirrors the real plane: two goroutines exchanging
	// ownership through a channel.
	aToB := make(chan *Packet, n)
	bToA := make(chan *Packet, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p := a.Acquire()
			if i%2 == 0 {
				aToB <- p
			} else {
				ReleasePacket(p)
			}
		}
		close(aToB)
		for p := range bToA {
			ReleasePacket(p) // B-origin packet released on A's goroutine
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p := b.Acquire()
			if i%2 == 0 {
				bToA <- p
			} else {
				ReleasePacket(p)
			}
		}
		close(bToA)
		for p := range aToB {
			ReleasePacket(p) // A-origin packet released on B's goroutine
		}
	}()
	wg.Wait()

	if got := a.Outstanding(); got != 0 {
		t.Errorf("arena A outstanding = %d after hand-off, want 0", got)
	}
	if got := b.Outstanding(); got != 0 {
		t.Errorf("arena B outstanding = %d after hand-off, want 0", got)
	}
}

// TestArenaReuseKeepsOrigin checks that a packet recycled through a
// cross-shard release is re-acquired from its origin arena zeroed and
// correctly re-stamped.
func TestArenaReuseKeepsOrigin(t *testing.T) {
	var a Arena
	p := a.Acquire()
	p.ID, p.Stream, p.Bits = 7, 3, 12000
	ReleasePacket(p)
	q := a.Acquire()
	if q.ID != 0 || q.Stream != 0 || q.Bits != 0 {
		t.Fatalf("reused packet not zeroed: %+v", q)
	}
	if q.arena != &a {
		t.Fatal("reused packet lost its origin arena")
	}
	ReleasePacket(q)
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
}

// TestDoubleReleasePanics pins the double-release guard: before it, a
// second ReleasePacket silently double-pooled the struct (two future
// Acquires alias one packet) and over-credited the released counter
// (outstanding drifts negative — the "leak" reads as negative
// population). Now it panics at the offending call site.
func TestDoubleReleasePanics(t *testing.T) {
	var a Arena
	p := a.Acquire()
	ReleasePacket(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second ReleasePacket did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if got := a.Outstanding(); got != 0 {
			t.Errorf("outstanding = %d after caught double release, want 0", got)
		}
	}()
	ReleasePacket(p)
}

// TestReleaseAdoptsDirectPackets: packets built with &Packet{} (tests,
// hand-crafted traffic) release into the default arena without skewing
// PoolOutstanding negative.
func TestReleaseAdoptsDirectPackets(t *testing.T) {
	before := PoolOutstanding()
	ReleasePacket(&Packet{ID: 1})
	if got := PoolOutstanding(); got != before {
		t.Fatalf("PoolOutstanding drifted %d -> %d on direct-packet release", before, got)
	}
}

// TestNetworkArena: a network with a private arena draws packets from it
// and mirrors its outstanding count, independent of the default pool.
func TestNetworkArena(t *testing.T) {
	var a Arena
	net := newNet(t)
	net.SetArena(&a)
	p := net.NewPacket(0, 12000)
	if p.arena != &a {
		t.Fatal("NewPacket ignored the network arena")
	}
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("arena outstanding = %d, want 1", got)
	}
	ReleasePacket(p)
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("arena outstanding = %d, want 0", got)
	}
}
