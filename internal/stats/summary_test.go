package stats

import (
	"math/rand"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.FractionAtLeast(1) != 0 || s.SustainedAt(0.95) != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummarizeKnown(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i + 1) // 1..100
	}
	s := Summarize(series)
	if s.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P05 != 5 {
		t.Errorf("P05 = %v, want 5", s.P05)
	}
	if s.P01 != 1 {
		t.Errorf("P01 = %v, want 1", s.P01)
	}
	if got := s.FractionAtLeast(91); got != 0.10 {
		t.Errorf("FractionAtLeast(91) = %v, want 0.10", got)
	}
	if got := s.SustainedAt(0.95); got != 5 {
		t.Errorf("SustainedAt(0.95) = %v, want 5", got)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = Summarize(in)
	if in[0] != 3 {
		t.Fatal("Summarize mutated input")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(12, 10); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("RelativeError(12,10) = %v", got)
	}
	if got := RelativeError(8, 10); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("RelativeError(8,10) = %v", got)
	}
	if got := RelativeError(5, 0); got != 5 {
		t.Errorf("RelativeError with zero actual = %v, want 5", got)
	}
}

func TestJitterUniformIsZero(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4, 5}
	if j := Jitter(times); j != 0 {
		t.Fatalf("uniform gaps should have zero jitter, got %v", j)
	}
}

func TestJitterKnown(t *testing.T) {
	// Gaps: 1, 3 → mean gap 2, deviations 1,1 → jitter 1.
	times := []float64{0, 1, 4}
	if j := Jitter(times); !almostEqual(j, 1, 1e-12) {
		t.Fatalf("jitter = %v, want 1", j)
	}
}

func TestJitterShortSeries(t *testing.T) {
	if Jitter(nil) != 0 || Jitter([]float64{1}) != 0 || Jitter([]float64{1, 2}) != 0 {
		t.Fatal("short series should have zero jitter")
	}
}

func TestJitterScalesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mk := func(noise float64) []float64 {
		times := make([]float64, 200)
		tm := 0.0
		for i := range times {
			tm += 1 + rng.NormFloat64()*noise
			times[i] = tm
		}
		return times
	}
	small := Jitter(mk(0.01))
	large := Jitter(mk(0.5))
	if small >= large {
		t.Fatalf("jitter should grow with gap noise: %v vs %v", small, large)
	}
}

func TestSummarySustainedMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	series := make([]float64, 500)
	for i := range series {
		series[i] = rng.Float64() * 100
	}
	s := Summarize(series)
	prev := s.SustainedAt(0.999)
	for _, frac := range []float64{0.99, 0.95, 0.9, 0.5, 0.1} {
		cur := s.SustainedAt(frac)
		if cur < prev {
			t.Fatalf("SustainedAt should be nondecreasing as fraction drops: %v < %v at %v", cur, prev, frac)
		}
		prev = cur
	}
}
