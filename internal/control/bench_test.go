package control

import (
	"fmt"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/overlay"
	"iqpaths/internal/stream"
)

// lineGraph builds S - R0 - R1 - ... - R(n-1) - C, the worst case for
// gossip (diameter n+1).
func lineGraph(n int) (g *overlay.Graph, s, c overlay.NodeID, routers []overlay.NodeID) {
	g = overlay.NewGraph()
	s = g.AddNode("S", overlay.Server)
	prev := s
	for i := 0; i < n; i++ {
		r := g.AddNode("R", overlay.Router)
		g.AddDuplex(prev, r)
		routers = append(routers, r)
		prev = r
	}
	c = g.AddNode("C", overlay.Client)
	g.AddDuplex(prev, c)
	return g, s, c, routers
}

// BenchmarkConvergence measures one full dissemination of a topology
// change across a 16-router line overlay (gossip every tick).
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, s, c, routers := lineGraph(16)
		ctl, err := New(Config{
			Graph: g, Src: s, Dst: c,
			GossipIntervalTicks: 1,
		}, RemoveLink(routers[len(routers)-1], c, 1))
		if err != nil {
			b.Fatal(err)
		}
		now := int64(0)
		for ; now < 1000; now++ {
			ctl.Tick(now)
			if now > 1 && ctl.Converged() {
				break
			}
		}
		if !ctl.Converged() {
			b.Fatal("never converged")
		}
	}
}

// warmShard builds an admission shard in perfbench control_plane's
// shape: 8 warm paths (Gaussian-ish windows about fixed means, 128
// samples each), a 0.5 s window and 1 Mbps per best-effort stream,
// holding 40 admitted streams that alternate probabilistic and
// violation-bound at 0.5–3.5 Mbps.
func warmShard(tb testing.TB) *Admission {
	means := []float64{40, 60, 80, 100, 50, 70, 90, 30}
	mons := make([]*monitor.PathMonitor, len(means))
	for j, mean := range means {
		mons[j] = monitor.New(fmt.Sprintf("p%d", j), 128, 16)
		for s := 0; s < 128; s++ {
			u := (float64((s*37)%128) + 0.5) / 128 // a fixed spread, visited out of order
			mons[j].ObserveBandwidth(mean * (0.76 + 0.48*u))
		}
	}
	adm := NewAdmission(AdmissionOptions{TwSec: 0.5, BestEffortMbps: 1}, mons)
	for i := 0; i < 40; i++ {
		rate := 0.5 + 3*float64((i*7)%40)/40
		spec := probSpec(fmt.Sprintf("s%d", i), rate, 0.9+0.05*float64(i%3/2))
		if i%2 == 1 {
			spec = stream.Spec{Name: spec.Name, Kind: stream.ViolationBound, RequiredMbps: rate, MaxViolations: 1 + float64(i%3)}
		}
		if d := adm.Admit(spec); !d.Admitted {
			tb.Fatalf("warm shard: %s rejected: %s", spec.Name, d.Reason)
		}
	}
	return adm
}

// BenchmarkAdmission measures one admission test. rejected is the worst
// case, paying both best-rate and best-probability binary searches over
// three warm paths; accepted is the common case in control_plane's
// shape, one admit and one release of a guaranteed stream on a shard
// already holding 40.
func BenchmarkAdmission(b *testing.B) {
	b.Run("rejected", func(b *testing.B) {
		mons := []*monitor.PathMonitor{
			warmMon("A", 45, 50, 55),
			warmMon("B", 25, 30, 35),
			warmMon("C", 15, 20, 25),
		}
		adm := NewAdmission(AdmissionOptions{}, mons)
		adm.Admit(probSpec("base", 40, 0.9))
		cand := probSpec("cand", 200, 0.95)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := adm.Admit(cand); d.Admitted {
				b.Fatal("candidate unexpectedly admitted")
			}
		}
	})
	b.Run("accepted", func(b *testing.B) {
		adm := warmShard(b)
		cand := probSpec("cand", 2, 0.9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := adm.Admit(cand); !d.Admitted {
				b.Fatal("candidate rejected")
			}
			adm.Release(cand.Name)
		}
	})
}
