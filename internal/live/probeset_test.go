package live

import (
	"context"
	"testing"
	"time"

	"iqpaths/internal/bwest"
	"iqpaths/internal/transport"
)

// TestDefaultProberConfigByteIdentical pins the default ProberConfig to
// the historical hard-coded behavior: 250 ms cadence, 16-packet trains
// of 1200-byte payloads, sequential train IDs, index/count metadata —
// the exact datagrams a pre-ProberConfig prober emitted.
func TestDefaultProberConfigByteIdentical(t *testing.T) {
	clock := NewFakeClock()
	conn := newFakeRaw()
	p := NewProber(ProberConfig{}, clock, conn)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx)
		close(done)
	}()

	for round := 0; round < 2; round++ {
		clock.BlockUntilTimers(1)
		// The legacy cadence: one train every 250 ms exactly. 249 ms must
		// not fire.
		clock.Advance(249 * time.Millisecond)
		select {
		case m := <-conn.out:
			t.Fatalf("round %d: train fired before 250 ms: %+v", round, m)
		default:
		}
		clock.Advance(1 * time.Millisecond)
		for i := 0; i < 16; i++ {
			m := <-conn.out
			if m.Kind != transport.KindTrain || m.Stream != trainRequest {
				t.Fatalf("round %d packet %d: kind=%d stream=%d", round, i, m.Kind, m.Stream)
			}
			if m.Seq != uint64(round+1) {
				t.Fatalf("round %d packet %d: train id %d, want %d", round, i, m.Seq, round+1)
			}
			idx, count := unpackTrainMeta(m.Frame)
			if idx != i || count != 16 {
				t.Fatalf("round %d packet %d: meta (%d,%d), want (%d,16)", round, i, idx, count, i)
			}
			if len(m.Payload) != 1200 {
				t.Fatalf("round %d packet %d: payload %d bytes, want 1200", round, i, len(m.Payload))
			}
			for _, b := range m.Payload {
				if b != 0 {
					t.Fatalf("round %d packet %d: non-zero pad byte", round, i)
				}
			}
		}
		select {
		case m := <-conn.out:
			t.Fatalf("round %d: extra packet %+v", round, m)
		default:
		}
	}
	clock.BlockUntilTimers(1)
	cancel()
	<-done
}

// TestProberSetRoundRobinMatchesTimers pins the ProberSet over a bwest
// estimator with the round-robin planner, at a budget of the path count,
// to the behavior of one Run loop per path: per round, every path emits
// exactly one default train, in path order.
func TestProberSetRoundRobinMatchesTimers(t *testing.T) {
	const paths = 3
	clock := NewFakeClock()
	conns := make([]*fakeRaw, paths)
	probers := make([]*Prober, paths)
	for i := range conns {
		conns[i] = newFakeRaw()
		probers[i] = NewProber(ProberConfig{}, clock, conns[i])
	}
	est := bwest.NewEstimator(bwest.Config{Paths: paths, Budget: paths, Planner: bwest.NewRoundRobinPlanner()})
	ps := NewProberSet(ProberSetConfig{}, clock, probers, est)

	for round := 0; round < 3; round++ {
		if got := ps.ProbeRound(); got != paths {
			t.Fatalf("round %d emitted %d trains, want %d", round, got, paths)
		}
		for pi, c := range conns {
			for i := 0; i < 16; i++ {
				m := <-c.out
				if m.Seq != uint64(round+1) {
					t.Fatalf("path %d round %d: train id %d", pi, round, m.Seq)
				}
				if len(m.Payload) != 1200 {
					t.Fatalf("path %d: payload %d", pi, len(m.Payload))
				}
			}
			select {
			case <-c.out:
				t.Fatalf("path %d round %d: extra packet", pi, round)
			default:
			}
		}
	}
}

// plannerFunc adapts a func to TrainPlanner for tests.
type plannerFunc func(k int) []int

func (f plannerFunc) PlanTrains(k int) []int { return f(k) }

func TestProberSetHonorsPlanAndSamplesPassively(t *testing.T) {
	clock := NewFakeClock()
	conns := []*fakeRaw{newFakeRaw(), newFakeRaw(), newFakeRaw()}
	probers := make([]*Prober, len(conns))
	losses := make([]int, len(conns))
	for i := range conns {
		i := i
		probers[i] = NewProber(ProberConfig{TrainPackets: 2}, clock, conns[i])
		probers[i].OnLoss = func(float64) { losses[i]++ }
		conns[i].setCounters(0, 10, 0)
	}
	ps := NewProberSet(ProberSetConfig{Budget: 1}, clock, probers,
		plannerFunc(func(k int) []int {
			if k != 1 {
				t.Errorf("planner got budget %d, want 1", k)
			}
			return []int{2, 99, -1} // out-of-range entries skipped
		}))
	if got := ps.ProbeRound(); got != 1 {
		t.Fatalf("emitted %d, want 1", got)
	}
	if len(conns[0].out) != 0 || len(conns[1].out) != 0 || len(conns[2].out) != 2 {
		t.Fatalf("train landed on wrong path: %d/%d/%d", len(conns[0].out), len(conns[1].out), len(conns[2].out))
	}
	// Passive sampling covers every path, planned or not.
	for i, n := range losses {
		if n != 1 {
			t.Fatalf("path %d passive samples = %d, want 1", i, n)
		}
	}
}

func TestProberSetRunPacesOnClock(t *testing.T) {
	clock := NewFakeClock()
	conn := newFakeRaw()
	p := NewProber(ProberConfig{TrainPackets: 2}, clock, conn)
	ps := NewProberSet(ProberSetConfig{IntervalSec: 0.25}, clock, []*Prober{p}, plannerFunc(func(int) []int { return []int{0} }))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		ps.Run(ctx)
		close(done)
	}()
	for round := 0; round < 2; round++ {
		clock.BlockUntilTimers(1)
		clock.Advance(250 * time.Millisecond)
		for i := 0; i < 2; i++ {
			<-conn.out
		}
	}
	clock.BlockUntilTimers(1)
	cancel()
	<-done
}

func TestProberSetPanics(t *testing.T) {
	for _, fn := range []func(){
		func() {
			NewProberSet(ProberSetConfig{}, NewFakeClock(), nil, plannerFunc(func(int) []int { return nil }))
		},
		func() {
			NewProberSet(ProberSetConfig{}, NewFakeClock(), []*Prober{NewProber(ProberConfig{}, NewFakeClock(), newFakeRaw())}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
