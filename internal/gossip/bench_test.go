package gossip

import (
	"fmt"
	"testing"
)

// BenchmarkConverge reports, per node count and engine, how well
// dissemination did beside its cost: mean convergence rounds
// (conv-ticks), total wire bytes (gossip-B), and bytes per node-round
// (B/node-round). One iteration runs the standard seeded churn script;
// the b.N loop re-runs it so ns/op stays meaningful.
func BenchmarkConverge(b *testing.B) {
	for _, mode := range []string{"delta", "flood"} {
		for _, nodes := range []int{100, 500, 1000} {
			b.Run(fmt.Sprintf("mode=%s/nodes=%d", mode, nodes), func(b *testing.B) {
				var last Stats
				for i := 0; i < b.N; i++ {
					p := Params{Nodes: nodes, LossProb: 0.1, Seed: 7}
					var e Engine
					if mode == "delta" {
						e = NewMesh(p)
					} else {
						e = NewFullFlood(p)
					}
					churnScript{nodes: nodes, events: 20, rounds: 100, drain: 16, seed: 7}.run(e)
					last = e.Stats()
				}
				b.ReportMetric(last.MeanConvRounds(), "conv-ticks")
				b.ReportMetric(float64(last.Bytes), "gossip-B")
				b.ReportMetric(float64(last.Bytes)/float64(nodes)/float64(last.Rounds), "B/node-round")
			})
		}
	}
}
