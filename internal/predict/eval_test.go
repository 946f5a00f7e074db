package predict

import (
	"math/rand"
	"testing"

	"iqpaths/internal/trace"
)

func TestAggregate(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7}
	out := Aggregate(in, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Aggregate = %v, want %v", out, want)
		}
	}
	// k ≤ 1 copies.
	cp := Aggregate(in, 1)
	cp[0] = 99
	if in[0] == 99 {
		t.Fatal("Aggregate(,1) must copy")
	}
}

func TestEvaluateDefaults(t *testing.T) {
	series := make([]float64, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := range series {
		series[i] = 60 + rng.NormFloat64()*10
	}
	res := Evaluate(series, EvalConfig{})
	if res.MeanPredictions == 0 || res.PercentilePredictions == 0 {
		t.Fatalf("no predictions scored: %+v", res)
	}
	if len(res.MeanErr) != 4 {
		t.Fatalf("expected 4 mean predictors, got %v", res.MeanErr)
	}
	if res.MeanErrAvg <= 0 {
		t.Fatal("mean error should be positive on a noisy series")
	}
}

func TestEvaluateConstantSeries(t *testing.T) {
	series := make([]float64, 1500)
	for i := range series {
		series[i] = 50
	}
	res := Evaluate(series, EvalConfig{WindowN: 200})
	if res.MeanErrAvg != 0 {
		t.Fatalf("mean error on constant series = %v, want 0", res.MeanErrAvg)
	}
	if res.PercentileFailureRate != 0 {
		t.Fatalf("percentile failures on constant series = %v, want 0", res.PercentileFailureRate)
	}
}

// The headline Fig. 4 shape: on an NLANR-like available-bandwidth series,
// mean prediction error is an order of magnitude above the percentile
// prediction failure rate.
func TestEvaluateFig4Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := trace.NewNLANRLike(trace.DefaultNLANR(), rng)
	cross := trace.Take(gen, 20000)
	avail := trace.AvailableBandwidth(100, cross)

	res := Evaluate(avail, EvalConfig{WindowN: 500, Quantile: 0.10, Horizon: 10})
	t.Logf("fig4 shape: %v", res)
	if res.MeanErrAvg < 0.05 {
		t.Errorf("mean error %v implausibly low — trace not noisy enough", res.MeanErrAvg)
	}
	if res.PercentileFailureRate > 0.05 {
		t.Errorf("percentile failure rate %v too high (paper: <4%%)", res.PercentileFailureRate)
	}
	if res.PercentileFailureRate >= res.MeanErrAvg {
		t.Errorf("expected percentile (%v) to beat mean (%v)", res.PercentileFailureRate, res.MeanErrAvg)
	}
}

func TestEvaluateShortSeries(t *testing.T) {
	res := Evaluate([]float64{1, 2, 3}, EvalConfig{})
	if res.PercentilePredictions != 0 {
		t.Fatal("short series should score no percentile predictions")
	}
}

func TestEvalResultString(t *testing.T) {
	res := Evaluate([]float64{1, 2, 3, 4, 5, 6, 7, 8}, EvalConfig{WindowN: 4})
	if s := res.String(); s == "" {
		t.Fatal("String should render")
	}
}
