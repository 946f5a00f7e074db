package live

import (
	"fmt"
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// benchSink is a PathService that accepts every packet instantly — the
// live analogue of an uncongested UDP socket — so BenchmarkScaleLive
// measures the driver and scheduler, not a transport.
type benchSink struct {
	id   int
	name string
	sent uint64
}

func (p *benchSink) ID() int      { return p.id }
func (p *benchSink) Name() string { return p.name }
func (p *benchSink) Send(pkt *simnet.Packet) bool {
	p.sent++
	// Mirror transport.Path's writer: once the packet is "on the wire" the
	// sink retires it to the pool.
	simnet.ReleasePacket(pkt)
	return true
}
func (p *benchSink) QueuedPackets() int { return 0 }

type liveScaleBench struct {
	d     *ShardedDriver
	clock *FakeClock
	rates []float64
	debt  []float64
	noise *rand.Rand
	cap   float64
	mons  []*monitor.PathMonitor
}

// newLiveScaleBench builds a FakeClock driver over nStreams × nPaths with
// pre-warmed monitors: the wall-clock runtime's steady state, minus real
// sockets. Offered load mirrors BenchmarkScale in internal/pgos: 0.25 Mbps
// guaranteed at 95 % for four of five streams, 0.1 Mbps best-effort for
// the fifth.
func newLiveScaleBench(nStreams, nPaths int) *liveScaleBench {
	specs := make([]stream.Spec, nStreams)
	rates := make([]float64, nStreams)
	totalMbps := 0.0
	for i := range specs {
		if i%5 == 4 {
			specs[i] = stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort}
			rates[i] = 0.1
		} else {
			specs[i] = stream.Spec{
				Name:         fmt.Sprintf("g%d", i),
				Kind:         stream.Probabilistic,
				RequiredMbps: 0.25,
				Probability:  0.95,
			}
			rates[i] = 0.25
		}
		totalMbps += rates[i]
	}
	capMbps := totalMbps*2/float64(nPaths) + 10

	paths := make([]sched.PathService, nPaths)
	mons := make([]*monitor.PathMonitor, nPaths)
	for j := 0; j < nPaths; j++ {
		paths[j] = &benchSink{id: j, name: fmt.Sprintf("p%d", j)}
		mons[j] = monitor.New(fmt.Sprintf("p%d", j), 500, 100)
	}

	lb := &liveScaleBench{
		clock: NewFakeClock(),
		rates: rates,
		debt:  make([]float64, nStreams),
		noise: rand.New(rand.NewSource(7)),
		cap:   capMbps,
		mons:  mons,
	}
	lb.d = NewShardedDriver(ShardedConfig{Config: Config{
		TickSeconds: 0.005,
		TwSec:       0.5,
		Clock:       lb.clock,
		OnTick:      lb.onTick,
	}}, []ShardDomain{{Paths: paths, Mons: mons}})
	// A one-domain plane numbers streams 0..n-1 in AddStream order, so
	// rates[i] feeds stream i.
	for _, sp := range specs {
		lb.d.AddStream(sp)
	}

	for k := 0; k < 500; k++ {
		lb.sampleMonitors()
	}
	// Steady state needs at least two scheduling windows, plus enough
	// ticks for per-stream queue storage to hit its compaction plateau
	// (low-rate streams pop every ~10 ticks).
	for t := 0; t < 1200; t++ {
		lb.d.Step()
	}
	return lb
}

func (lb *liveScaleBench) sampleMonitors() {
	for j := range lb.mons {
		lb.d.ObserveBandwidth(0, j, lb.cap*(1+0.03*lb.noise.NormFloat64()))
	}
}

func (lb *liveScaleBench) onTick(tick int64) {
	if tick%10 == 0 {
		lb.sampleMonitors()
	}
	for i, r := range lb.rates {
		lb.debt[i] += r * 1e6 * 0.005 / 12000
		for lb.debt[i] >= 1 {
			lb.debt[i]--
			lb.d.Offer(i, 12000)
		}
	}
}

// BenchmarkScaleLive sweeps the live FakeClock driver on one scheduling
// domain: one op is one driver Step — traffic Offer, window bookkeeping,
// one PGOS dispatch round — at streams × paths scale.
func BenchmarkScaleLive(b *testing.B) {
	for _, nStreams := range []int{10, 100, 1000, 5000} {
		for _, nPaths := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("streams=%d/paths=%d", nStreams, nPaths), func(b *testing.B) {
				lb := newLiveScaleBench(nStreams, nPaths)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lb.d.Step()
				}
			})
		}
	}
}
