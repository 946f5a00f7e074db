package bwest

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTruth is a minimal synthetic truth model: per-path Gaussian
// available bandwidth, grouped so every 4 consecutive paths share a
// base capacity (exercising the correlation store).
type benchTruth struct {
	mean  []float64
	rngs  []*rand.Rand
	sigma float64
}

func newBenchTruth(paths int, seed int64) *benchTruth {
	root := rand.New(rand.NewSource(seed))
	t := &benchTruth{
		mean:  make([]float64, paths),
		rngs:  make([]*rand.Rand, paths),
		sigma: 4,
	}
	for g := 0; g < (paths+3)/4; g++ {
		base := 40 + 55*root.Float64()
		for k := 0; k < 4 && g*4+k < paths; k++ {
			t.mean[g*4+k] = base
		}
	}
	for i := range t.rngs {
		t.rngs[i] = rand.New(rand.NewSource(seed + int64(i)*7919))
	}
	return t
}

func (t *benchTruth) sample(i int) float64 {
	v := t.mean[i] + t.sigma*t.rngs[i].NormFloat64()
	if v < 1 {
		v = 1
	}
	return v
}

// targetEntropy is the per-path mean posterior entropy (bits) the
// convergence pre-pass drives toward; the rounds-to-target metric is
// how many planning rounds it takes to get there.
const benchTargetEntropy = 3.2

func runRounds(e *Estimator, truth *benchTruth, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range e.PlanTrains(0) {
			e.ObserveProbe(p, truth.sample(p))
		}
	}
}

// BenchmarkProbing measures the planning+update round cost and reports
// the probing cost model as custom metrics: probe bytes per round
// (16-packet trains of 1228 B), mean posterior entropy after the run,
// and rounds-to-target-entropy from a separate untimed pre-pass, per
// planner and overlay size.
func BenchmarkProbing(b *testing.B) {
	const trainBytes = 16 * 1228
	for _, paths := range []int{100, 1000} {
		for _, planner := range []string{"active", "rr"} {
			b.Run(fmt.Sprintf("planner=%s/paths=%d", planner, paths), func(b *testing.B) {
				mk := func() (*Estimator, *benchTruth) {
					var p Planner
					if planner == "rr" {
						p = NewRoundRobinPlanner()
					} else {
						p = NewInfoGainPlanner()
					}
					e := NewEstimator(Config{Paths: paths, Planner: p})
					for g := 0; g*4+3 < paths; g++ {
						for a := 0; a < 4; a++ {
							for c := a + 1; c < 4; c++ {
								e.DeclareShared(g*4+a, g*4+c)
							}
						}
					}
					return e, newBenchTruth(paths, 1)
				}

				// Untimed pre-pass: rounds until mean entropy hits target.
				e0, t0 := mk()
				toTarget := 0
				for toTarget < 20000 && e0.MeanEntropyBits() > benchTargetEntropy {
					runRounds(e0, t0, 1)
					toTarget++
				}

				e, truth := mk()
				b.ReportAllocs()
				b.ResetTimer()
				runRounds(e, truth, b.N)
				b.StopTimer()
				b.ReportMetric(float64(e.Budget()*trainBytes), "probe-B/round")
				b.ReportMetric(e.MeanEntropyBits(), "entropy-bits")
				b.ReportMetric(float64(toTarget), "rounds-to-target")
			})
		}
	}
}

func BenchmarkObserveProbe(b *testing.B) {
	e := NewEstimator(Config{Paths: 64})
	truth := newBenchTruth(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObserveProbe(i&63, truth.sample(i&63))
	}
}

func BenchmarkPlanTrains5000(b *testing.B) {
	e := NewEstimator(Config{Paths: 5000})
	truth := newBenchTruth(5000, 1)
	runRounds(e, truth, 50) // mixed convergence states
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PlanTrains(0)
	}
}
