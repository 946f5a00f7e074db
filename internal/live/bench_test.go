package live

import (
	"testing"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/stream"
	"iqpaths/internal/transport"
)

// BenchmarkDriverPacing measures one live scheduling tick with a steady
// CBR stream feeding a guaranteed mapping — the per-tick cost of the
// wall-clock driver loop (OnTick ingest + PGOS dispatch).
func BenchmarkDriverPacing(b *testing.B) {
	clock := NewFakeClock()
	paths := []sched.PathService{&fakePath{id: 0, name: "p0"}, &fakePath{id: 1, name: "p1"}}
	mons := []*monitor.PathMonitor{monitor.New("p0", 64, 8), monitor.New("p1", 64, 8)}
	for i := 0; i < 16; i++ {
		mons[0].ObserveBandwidth(100)
		mons[1].ObserveBandwidth(50)
	}
	var d *ShardedDriver
	var id int
	cbr := &CBR{Mbps: 12, PacketBits: 12000}
	cfg := Config{TickSeconds: 0.005, TwSec: 0.5, Clock: clock, OnTick: func(int64) {
		n := cbr.Packets(0.005)
		for i := 0; i < n; i++ {
			d.Offer(id, 12000)
		}
	}}
	d = NewShardedDriver(ShardedConfig{Config: cfg}, []ShardDomain{{Paths: paths, Mons: mons}})
	id, _ = d.AddStream(stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 12, Probability: 0.9, PacketBits: 12000})
	d.AddStream(stream.Spec{Name: "be", Kind: stream.BestEffort, PacketBits: 12000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

// BenchmarkProbeTrain measures one full dispersion round: a 16-packet
// train marshalled and handed to a responder, plus the reply path.
func BenchmarkProbeTrain(b *testing.B) {
	clock := NewFakeClock()
	probeConn := newFakeRaw()
	replyConn := newFakeRaw()
	p := NewProber(ProbeConfig{TrainPackets: 16, ProbeBytes: 1200}, clock, probeConn)
	r := NewResponder(clock, replyConn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ProbeOnce(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			r.HandleRequest(<-probeConn.out)
		}
		p.HandleReply(<-replyConn.out)
		// Fire the train's gap timer so its goroutine exits.
		clock.Advance(time.Second)
	}
}

// BenchmarkTrainMarshal isolates the per-packet wire cost of a probe.
func BenchmarkTrainMarshal(b *testing.B) {
	m := &transport.Message{Kind: transport.KindTrain, Stream: trainRequest, Seq: 1, Frame: packTrainMeta(3, 16), Payload: make([]byte, 1200)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
