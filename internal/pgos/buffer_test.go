package pgos

import (
	"math/rand"
	"testing"

	"iqpaths/internal/stats"
)

func TestBufferBoundZeroCases(t *testing.T) {
	c := uniformCDF(50, 100, 101)
	if BufferBound(stats.BuildCDF(nil), 10, 1, 0.95) != 0 {
		t.Fatal("empty CDF")
	}
	if BufferBound(c, 0, 1, 0.95) != 0 || BufferBound(c, 10, 0, 0.95) != 0 {
		t.Fatal("degenerate inputs")
	}
	// Rate below the distribution's minimum: no buffer needed.
	if BufferBound(c, 40, 1, 0.99) != 0 {
		t.Fatal("rate under min needs no buffer")
	}
}

func TestBufferBoundKnown(t *testing.T) {
	// Uniform 0..100: Quantile(0.05) ≈ 5; rate 50 → shortfall 45 Mbit.
	c := uniformCDF(0, 100, 101)
	b := BufferBound(c, 50, 1, 0.95)
	if b < 44e6 || b > 46e6 {
		t.Fatalf("buffer = %.0f bits, want ~45e6", b)
	}
	// Higher assurance needs a bigger buffer.
	if BufferBound(c, 50, 1, 0.99) <= b {
		t.Fatal("buffer must grow with assurance level")
	}
	// Longer windows need proportionally more.
	if got := BufferBound(c, 50, 2, 0.95); got < 1.9*b || got > 2.1*b {
		t.Fatalf("buffer not proportional to window: %v vs %v", got, b)
	}
}

func TestMeanBufferBoundUnderProvisions(t *testing.T) {
	// Bimodal: 90 % at 60, 10 % at 5 — mean 54.5, p5 = 5.
	xs := make([]float64, 0, 100)
	for i := 0; i < 90; i++ {
		xs = append(xs, 60)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 5)
	}
	c := stats.BuildCDF(xs)
	// Rate 50: the mean covers it, so mean-prediction sizing says "no
	// buffer"; the distribution says 45 Mbit.
	if c.Mean() <= 50 {
		t.Fatalf("mean %v should cover the rate", c.Mean())
	}
	if b := BufferBound(c, 50, 1, 0.95); b < 40e6 {
		t.Fatalf("distribution sizing must cover the dips: %v", b)
	}
}

// The bound must actually cover realized shortfalls at its stated
// probability, for arbitrary noisy distributions.
func TestBufferBoundCoversRealizedShortfalls(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 30 + rng.NormFloat64()*10
			if rng.Float64() < 0.05 {
				xs[i] = 5 + rng.Float64()*5
			}
			if xs[i] < 0 {
				xs[i] = 0
			}
		}
		c := stats.BuildCDF(xs)
		rate := 25 + rng.Float64()*10
		bound := BufferBound(c, rate, 1, 0.95)
		covered := 0
		for _, bw := range xs {
			short := (rate - bw) * 1e6
			if short < 0 {
				short = 0
			}
			if short <= bound+1e-6 {
				covered++
			}
		}
		if frac := float64(covered) / float64(len(xs)); frac < 0.95 {
			t.Fatalf("trial %d: bound covers only %.3f of windows", trial, frac)
		}
	}
}
