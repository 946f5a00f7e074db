package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// fakePath is an in-memory sched.PathService that accepts everything.
type fakePath struct {
	id   int
	name string

	mu   sync.Mutex
	sent []*simnet.Packet
}

func (f *fakePath) ID() int            { return f.id }
func (f *fakePath) Name() string       { return f.name }
func (f *fakePath) QueuedPackets() int { return 0 }
func (f *fakePath) Send(p *simnet.Packet) bool {
	f.mu.Lock()
	f.sent = append(f.sent, p)
	f.mu.Unlock()
	return true
}

func (f *fakePath) packets() []*simnet.Packet {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*simnet.Packet(nil), f.sent...)
}

// newTestDriver builds a driver on a FakeClock with one fake path per
// shard, each watched by a monitor pre-warmed at warmMbps (0 leaves the
// monitors cold).
func newTestDriver(t *testing.T, cfg Config, nShards int, warmMbps float64) (*ShardedDriver, []*fakePath, *FakeClock) {
	t.Helper()
	clock := NewFakeClock()
	cfg.Clock = clock
	paths := make([]*fakePath, nShards)
	domains := make([]ShardDomain, nShards)
	for k := range domains {
		paths[k] = &fakePath{id: 0, name: "p0"}
		mon := monitor.New("p0", 64, 8)
		for i := 0; warmMbps > 0 && i < 16; i++ {
			mon.ObserveBandwidth(warmMbps)
		}
		domains[k] = ShardDomain{
			Paths: []sched.PathService{paths[k]},
			Mons:  []*monitor.PathMonitor{mon},
		}
	}
	d := NewShardedDriver(ShardedConfig{Config: cfg}, domains)
	t.Cleanup(d.Stop)
	return d, paths, clock
}

var guaranteedSpec = stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 1.2, Probability: 0.9, PacketBits: 12000}

func TestDriverDispatchesOfferedPackets(t *testing.T) {
	d, paths, _ := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1}, 1, 100)
	id, _ := d.AddStream(guaranteedSpec)
	// Quota: 1.2 Mbps over a 0.1 s window at 12000-bit packets = 10 packets.
	for i := 0; i < 10; i++ {
		d.Offer(id, 12000)
	}
	for i := 0; i < 10; i++ {
		d.Step()
	}
	if got := len(paths[0].packets()); got != 10 {
		t.Fatalf("path received %d packets, want 10", got)
	}
	sh := d.Plane().Shard(0)
	if n := sh.Stream(0).Len(); n != 0 {
		t.Fatalf("backlog %d after full window, want 0", n)
	}
	if st := d.SchedStats(); st.ScheduledSent == 0 {
		t.Fatalf("no packets sent under the scheduled rule: %+v", st)
	}
	m := sh.Scheduler().Mapping()
	if len(m.Packets) != 1 || m.Packets[0][0] < 10 {
		t.Fatalf("mapping quota %v, want >= 10 on path 0", m.Packets)
	}
}

// TestDriverCountsRefusedOffers checks that offers a full backlog refuses
// at the tick boundary are released and counted by the owning shard.
func TestDriverCountsRefusedOffers(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, _, _ := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1, Telemetry: reg}, 1, 0)
	id, _ := d.AddStream(stream.Spec{Name: "be", Kind: stream.BestEffort, PacketBits: 12000, QueueLimit: 3})
	for i := 0; i < 5; i++ {
		d.Offer(id, 12000)
	}
	d.Step()
	drops := reg.WithLabels("shard", "0").Counter("iqpaths_shard_offer_drops_total", "").Value()
	if drops != 2 {
		t.Fatalf("offer drops %d, want 2 (5 offers into a 3-packet backlog)", drops)
	}
}

func TestDriverDeadlineStampPerWindow(t *testing.T) {
	d, paths, clock := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.05}, 1, 100)
	id, _ := d.AddStream(stream.Spec{Name: "be", Kind: stream.BestEffort, PacketBits: 12000})

	tick := 10 * time.Millisecond
	// Window 0 spans ticks [0,5); entered by the first Offer with the clock
	// at 0, so its wire deadline is TwSec = 50 ms — also for the packet
	// offered later in the window, at 30 ms.
	d.Offer(id, 12000)
	for i := 0; i < 5; i++ {
		d.Step()
		clock.Advance(tick)
		if i == 2 {
			d.Offer(id, 12000)
		}
	}
	// Window 1 is entered at Step 5 with the clock at 50 ms: deadline 100 ms.
	d.Offer(id, 12000)
	for i := 0; i < 5; i++ {
		d.Step()
		clock.Advance(tick)
	}

	sent := paths[0].packets()
	if len(sent) != 3 {
		t.Fatalf("path received %d packets, want 3", len(sent))
	}
	for i, want := range []struct {
		stamp time.Duration
		tick  int64
	}{{50 * time.Millisecond, 5}, {50 * time.Millisecond, 5}, {100 * time.Millisecond, 10}} {
		if sent[i].Frame != uint64(want.stamp) || sent[i].Deadline != want.tick {
			t.Fatalf("packet %d: stamp %d, tick deadline %d; want %d, %d",
				i, sent[i].Frame, sent[i].Deadline, uint64(want.stamp), want.tick)
		}
	}
}

func TestDriverOnTickOffersInline(t *testing.T) {
	var d *ShardedDriver
	var id int
	cbr := &CBR{Mbps: 1.2, PacketBits: 12000}
	cfg := Config{TickSeconds: 0.01, TwSec: 0.1, OnTick: func(tick int64) {
		n := cbr.Packets(0.01)
		for i := 0; i < n; i++ {
			d.Offer(id, 12000)
		}
	}}
	d, paths, _ := newTestDriver(t, cfg, 1, 100)
	id, _ = d.AddStream(guaranteedSpec)
	for i := 0; i < 20; i++ {
		d.Step()
	}
	// 1.2 Mbps at 10 ms ticks is exactly one packet per tick, each sent in
	// the tick that offered it.
	if got := len(paths[0].packets()); got != 20 {
		t.Fatalf("path received %d packets over 20 ticks, want 20", got)
	}
}

func TestDriverRunPacesOnClock(t *testing.T) {
	d, _, clock := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1}, 1, 100)
	d.AddStream(stream.Spec{Name: "be", Kind: stream.BestEffort})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()

	for i := 0; i < 5; i++ {
		clock.BlockUntilTimers(1)
		clock.Advance(10 * time.Millisecond)
	}
	clock.BlockUntilTimers(1) // Run parked again: exactly 5 steps happened
	if got := d.Tick(); got != 5 {
		t.Fatalf("tick %d after 5 advances, want 5", got)
	}

	// A 100-tick stall catches up at most maxCatchUp ticks, then resyncs.
	clock.Advance(1 * time.Second)
	clock.BlockUntilTimers(1)
	if got := d.Tick(); got != 5+maxCatchUp {
		t.Fatalf("tick %d after stall, want %d (5 + maxCatchUp)", got, 5+maxCatchUp)
	}
	if got := d.LagResyncs(); got != 1 {
		t.Fatalf("lag resyncs %d, want 1", got)
	}

	cancel()
	clock.Advance(10 * time.Millisecond) // release the final After
	<-done
}

func TestDriverWarm(t *testing.T) {
	d, _, _ := newTestDriver(t, Config{}, 1, 0)
	d.AddStream(stream.Spec{Name: "be"})
	if d.Warm() {
		t.Fatal("Warm() true with no samples")
	}
	for i := 0; i < 8; i++ {
		d.ObserveBandwidth(0, 0, 50)
	}
	if d.Warm() {
		t.Fatal("Warm() true before the samples reached a tick boundary")
	}
	d.Step()
	if !d.Warm() {
		t.Fatal("Warm() false after minWarm samples")
	}
}

func TestCBRCarry(t *testing.T) {
	c := &CBR{Mbps: 1.0, PacketBits: 12000}
	total := 0
	for i := 0; i < 100; i++ {
		total += c.Packets(0.01)
	}
	// 1 Mbps for 1 s = 1e6 bits = 83.33 packets; carry keeps it exact.
	if total != 83 {
		t.Fatalf("CBR emitted %d packets over 1s, want 83", total)
	}
}

// TestDriverStampGroupsMeetQuota replays the daemon source parameters
// (5 Mbps, 0.5 s windows, 5 ms ticks) and checks every full stamp group
// dispatched to the path meets the contract quota — the invariant the
// sink's violation accounting rests on.
func TestDriverStampGroupsMeetQuota(t *testing.T) {
	cbr := &CBR{Mbps: 5, PacketBits: 12000}
	var d *ShardedDriver
	var id int
	cfg := Config{TickSeconds: 0.005, TwSec: 0.5, OnTick: func(int64) {
		n := cbr.Packets(0.005)
		for i := 0; i < n; i++ {
			d.Offer(id, 12000)
		}
	}}
	d, paths, clock := newTestDriver(t, cfg, 1, 30)
	id, _ = d.AddStream(stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 5, Probability: 0.9, PacketBits: 12000})

	const windows = 10
	for i := 0; i < windows*100; i++ {
		d.Step()
		clock.Advance(5 * time.Millisecond)
	}
	sent := paths[0].packets()
	counts := map[uint64]int{}
	for _, pkt := range sent {
		counts[pkt.Frame]++
	}
	bitsPerWindow := 5e6 * 0.5
	quota := int(bitsPerWindow / 12000) // 208
	t.Logf("stamp groups: %d, total %d", len(counts), len(sent))
	short := 0
	for stamp, n := range counts {
		t.Logf("stamp %d: %d packets", stamp, n)
		if n < quota {
			short++
		}
	}
	// The last group may be cut off mid-window; no other group may be short.
	if short > 1 {
		t.Fatalf("%d of %d stamp groups below quota %d", short, len(counts), quota)
	}
}

func TestShardedDriverDispatchesOffers(t *testing.T) {
	d, paths, _ := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1}, 2, 100)
	id0, k0 := d.AddStream(guaranteedSpec)
	id1, k1 := d.AddStream(guaranteedSpec)
	for i := 0; i < 10; i++ {
		d.Offer(id0, 12000)
		d.Offer(id1, 12000)
	}
	for i := 0; i < 12; i++ {
		d.Step()
	}
	total := 0
	for _, p := range paths {
		total += len(p.packets())
	}
	if total != 20 {
		t.Fatalf("paths received %d packets, want 20", total)
	}
	// Each stream's packets must have gone out on its owner's path.
	for _, pkt := range paths[k0].packets() {
		if pkt.Stream != id0 && k0 != k1 {
			t.Fatalf("shard %d path carried stream %d, owns only %d", k0, pkt.Stream, id0)
		}
	}
	st := d.SchedStats()
	sent := st.ScheduledSent + st.OtherPathSent + st.UnscheduledSent
	if sent != 20 {
		t.Fatalf("aggregated sched stats count %d sends, want 20", sent)
	}
	if len(st.PerStream) != 2 {
		t.Fatalf("PerStream len %d, want 2", len(st.PerStream))
	}
}

func TestShardedDriverObserveRoutesToShard(t *testing.T) {
	d, _, _ := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1}, 2, 100)
	if !d.Warm() {
		t.Fatal("monitors warm at construction, Warm() = false")
	}
	d.ObserveBandwidth(1, 0, 250)
	d.Step()
	// Shard 1's monitor mean moves toward the new sample; shard 0's stays.
	m0 := d.Plane().Shard(0).Mons()[0].MeanBandwidth()
	m1 := d.Plane().Shard(1).Mons()[0].MeanBandwidth()
	if m0 != 100 {
		t.Fatalf("shard 0 monitor mean = %v, want untouched 100", m0)
	}
	if m1 <= 100 {
		t.Fatalf("shard 1 monitor mean = %v, want > 100 after 250 sample", m1)
	}
}
