package live

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"iqpaths/internal/transport"
)

// fakeRaw is an in-memory RawConn: copies of the written messages land
// in a channel, passive counters are settable.
type fakeRaw struct {
	out chan *transport.Message

	mu      sync.Mutex
	handler func(*transport.Message)
	rtt     time.Duration
	sent    uint64
	retx    uint64
}

func newFakeRaw() *fakeRaw { return &fakeRaw{out: make(chan *transport.Message, 256)} }

// WriteRaw records a copy of m: callers reuse the message they pass.
func (f *fakeRaw) WriteRaw(m *transport.Message) error {
	c := *m
	c.Payload = append([]byte(nil), m.Payload...)
	f.out <- &c
	return nil
}
func (f *fakeRaw) SetRawHandler(fn func(*transport.Message)) {
	f.mu.Lock()
	f.handler = fn
	f.mu.Unlock()
}
func (f *fakeRaw) RTT() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rtt
}
func (f *fakeRaw) Retransmits() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retx
}
func (f *fakeRaw) SentSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent
}
func (f *fakeRaw) setCounters(rtt time.Duration, sent, retx uint64) {
	f.mu.Lock()
	f.rtt, f.sent, f.retx = rtt, sent, retx
	f.mu.Unlock()
}

func TestProbeTrainDispersion(t *testing.T) {
	clock := NewFakeClock()
	probeConn := newFakeRaw()
	replyConn := newFakeRaw()
	p := NewProber(ProbeConfig{TrainPackets: 4}, clock, probeConn)
	r := NewResponder(clock, replyConn)

	var mbps float64
	p.OnBandwidth = func(v float64) { mbps = v }

	if err := p.ProbeOnce(); err != nil {
		t.Fatalf("ProbeOnce: %v", err)
	}
	// The responder sees the 4-packet train dispersed 1 ms apart: a
	// bottleneck passing one 1228-byte datagram per millisecond.
	for i := 0; i < 4; i++ {
		m := <-probeConn.out
		if m.Kind != transport.KindTrain || m.Stream != trainRequest {
			t.Fatalf("train packet %d: kind=%d stream=%d", i, m.Kind, m.Stream)
		}
		idx, count := unpackTrainMeta(m.Frame)
		if idx != i || count != 4 {
			t.Fatalf("train meta (%d,%d), want (%d,4)", idx, count, i)
		}
		r.HandleRequest(m)
		clock.Advance(time.Millisecond)
	}

	reply := <-replyConn.out
	if reply.Stream != trainReply {
		t.Fatalf("reply stream %d, want %d", reply.Stream, trainReply)
	}
	p.HandleReply(reply)
	// (4−1) gaps of 1 ms moved 3 datagrams of (28+1200)·8 bits:
	// 3·9824 bits / 3 ms = 9.824 Mbps.
	want := float64(transport.DatagramOverhead+1200) * 8 / 1e-3 / 1e6
	if diff := mbps - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("estimated %.6f Mbps, want %.6f", mbps, want)
	}
	if sent, got := p.Trains(); sent != 1 || got != 1 {
		t.Fatalf("trains sent=%d replies=%d, want 1/1", sent, got)
	}
}

func TestResponderLostTailTimesOut(t *testing.T) {
	clock := NewFakeClock()
	replyConn := newFakeRaw()
	r := NewResponder(clock, replyConn)

	// Three of sixteen packets arrive; the tail is lost.
	for i := 0; i < 3; i++ {
		r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 1, Frame: packTrainMeta(i, 16)})
		clock.Advance(time.Millisecond)
	}
	clock.BlockUntilTimers(1) // the gap-timeout goroutine is parked
	clock.Advance(r.GapTimeout)

	reply := <-replyConn.out
	spread, got, count, ok := unmarshalTrainReply(reply.Payload)
	if !ok || got != 3 || count != 16 {
		t.Fatalf("reply got=%d count=%d ok=%v, want 3/16", got, count, ok)
	}
	if spread != int64(2*time.Millisecond) {
		t.Fatalf("spread %d, want 2ms", spread)
	}
}

func TestResponderNewTrainFinalizesPrevious(t *testing.T) {
	clock := NewFakeClock()
	replyConn := newFakeRaw()
	r := NewResponder(clock, replyConn)

	r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 1, Frame: packTrainMeta(0, 8)})
	clock.Advance(time.Millisecond)
	r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 1, Frame: packTrainMeta(1, 8)})
	// Train 2 begins: train 1 must be finalized immediately.
	r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 2, Frame: packTrainMeta(0, 8)})

	reply := <-replyConn.out
	if reply.Seq != 1 {
		t.Fatalf("finalized train %d, want 1", reply.Seq)
	}
	if _, got, _, _ := unmarshalTrainReply(reply.Payload); got != 2 {
		t.Fatalf("train 1 got=%d, want 2", got)
	}
}

// TestResponderBoundsPendingTimeouts floods the responder with trains of
// fresh IDs, as a peer sending raw train frames can: one gap timeout stays
// pending for all of them, not one parked goroutine per train, and the
// last train is still finalized when its tail never arrives.
func TestResponderBoundsPendingTimeouts(t *testing.T) {
	clock := NewFakeClock()
	replyConn := newFakeRaw()
	r := NewResponder(clock, replyConn)

	before := runtime.NumGoroutine()
	const trains = 10000
	for id := uint64(1); id <= trains; id++ {
		r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: id, Frame: packTrainMeta(0, 16)})
	}
	clock.Advance(time.Millisecond)
	r.HandleRequest(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: trains, Frame: packTrainMeta(1, 16)})
	if n := runtime.NumGoroutine() - before; n > 1 {
		t.Fatalf("%d goroutines pending after %d trains, want at most 1", n, trains)
	}

	clock.BlockUntilTimers(1)
	clock.Advance(r.GapTimeout)
	reply := <-replyConn.out
	if _, got, count, ok := unmarshalTrainReply(reply.Payload); reply.Seq != trains || !ok || got != 2 || count != 16 {
		t.Fatalf("reply for train %d got=%d count=%d ok=%v, want train %d 2/16", reply.Seq, got, count, ok, trains)
	}
}

func TestSamplePassive(t *testing.T) {
	clock := NewFakeClock()
	conn := newFakeRaw()
	p := NewProber(ProbeConfig{}, clock, conn)

	var rtts, losses []float64
	p.OnRTT = func(v float64) { rtts = append(rtts, v) }
	p.OnLoss = func(v float64) { losses = append(losses, v) }

	conn.setCounters(20*time.Millisecond, 100, 0)
	p.SamplePassive()
	conn.setCounters(20*time.Millisecond, 180, 20)
	p.SamplePassive()

	if len(rtts) != 2 || rtts[0] != 0.02 {
		t.Fatalf("rtts %v, want two 0.02 samples", rtts)
	}
	if len(losses) != 2 || losses[0] != 0 {
		t.Fatalf("losses %v, want first 0", losses)
	}
	// 80 new packets, 20 retransmits: 20/(80+20) = 0.2.
	if losses[1] != 0.2 {
		t.Fatalf("loss %v, want 0.2", losses[1])
	}
}

func TestBindDispatchesByRole(t *testing.T) {
	clock := NewFakeClock()
	conn := newFakeRaw()
	replyConn := newFakeRaw()
	p := NewProber(ProbeConfig{TrainPackets: 2}, clock, conn)
	r := NewResponder(clock, replyConn)
	Bind(conn, p, r)

	conn.mu.Lock()
	h := conn.handler
	conn.mu.Unlock()

	// A request goes to the responder.
	h(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 9, Frame: packTrainMeta(0, 2)})
	clock.Advance(time.Millisecond)
	h(&transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 9, Frame: packTrainMeta(1, 2)})
	reply := <-replyConn.out

	// A reply goes to the prober.
	h(reply)
	if _, got := p.Trains(); got != 1 {
		t.Fatalf("prober replies %d, want 1", got)
	}
}
