package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}

func naiveMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatalf("zero-value Welford should report zeros, got n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.N() != 1 || w.Mean() != 42 || w.Variance() != 0 {
		t.Fatalf("single sample: n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; unbiased variance is 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Constrain to finite, moderate values.
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, math.Mod(x, 1e6))
		}
		var w Welford
		for _, x := range clean {
			w.Add(x)
		}
		mean, variance := naiveMeanVar(clean)
		return almostEqual(w.Mean(), mean, 1e-6) && almostEqual(w.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("reset did not clear state")
	}
}
