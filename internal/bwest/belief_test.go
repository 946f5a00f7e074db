package bwest

import (
	"math"
	"testing"
)

func TestBeliefUniformPrior(t *testing.T) {
	b := NewBelief(100, 20)
	if got, want := b.EntropyBits(), math.Log2(20); math.Abs(got-want) > 1e-9 {
		t.Fatalf("uniform entropy = %v, want %v", got, want)
	}
	if got := b.Mean(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("uniform mean = %v, want 50", got)
	}
	if got := b.Quantile(0.5); math.Abs(got-50) > 1e-9 {
		t.Fatalf("uniform median = %v, want 50", got)
	}
	if got := b.CDF(25); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("uniform CDF(25) = %v, want 0.25", got)
	}
}

func TestObserveRateConcentrates(t *testing.T) {
	b := NewBelief(100, 24)
	h0 := b.EntropyBits()
	for i := 0; i < 10; i++ {
		b.ObserveRate(42, 0.12)
	}
	if h := b.EntropyBits(); h >= h0 {
		t.Fatalf("entropy did not drop: %v -> %v", h0, h)
	}
	if m := b.Mean(); math.Abs(m-42) > 6 {
		t.Fatalf("posterior mean %v too far from measurement 42", m)
	}
	lo, hi := b.Quantile(0.05), b.Quantile(0.95)
	if lo > 42 || hi < 42 {
		t.Fatalf("90%% interval [%v, %v] excludes the truth", lo, hi)
	}
}

func TestObserveRateTempered(t *testing.T) {
	full := NewBelief(100, 24)
	part := NewBelief(100, 24)
	noop := NewBelief(100, 24)
	full.ObserveRate(30, 0.12)
	part.ObserveRateTempered(30, 0.12, 0.25)
	noop.ObserveRateTempered(30, 0.12, 0)
	if hf, hp := full.EntropyBits(), part.EntropyBits(); hf >= hp {
		t.Fatalf("tempered update should concentrate less: full %v, tempered %v", hf, hp)
	}
	if h := noop.EntropyBits(); math.Abs(h-math.Log2(24)) > 1e-9 {
		t.Fatalf("temper=0 must be a no-op, entropy %v", h)
	}
}

func TestObserveBoundShiftsMass(t *testing.T) {
	b := NewBelief(100, 20)
	for i := 0; i < 5; i++ {
		b.ObserveBound(40, true, 0.7)
	}
	if got := b.CDF(40); got < 0.9 {
		t.Fatalf("after repeated below-40 evidence CDF(40) = %v, want > 0.9", got)
	}
	// Uninformative and degenerate confidences are ignored.
	c := NewBelief(100, 20)
	c.ObserveBound(40, true, 0.5)
	c.ObserveBound(40, true, 1.0)
	if h := c.EntropyBits(); math.Abs(h-math.Log2(20)) > 1e-9 {
		t.Fatalf("invalid conf must be ignored, entropy %v", h)
	}
}

func TestDecayClosedForm(t *testing.T) {
	b := NewBelief(100, 16)
	for i := 0; i < 8; i++ {
		b.ObserveRate(20, 0.1)
	}
	hBefore := b.EntropyBits()
	b.Decay(50, 0.05)
	hAfter := b.EntropyBits()
	if hAfter <= hBefore {
		t.Fatalf("decay must raise entropy: %v -> %v", hBefore, hAfter)
	}
	// Large backlog converges to uniform.
	b.Decay(10000, 0.05)
	if h := b.EntropyBits(); math.Abs(h-math.Log2(16)) > 1e-6 {
		t.Fatalf("heavy decay should reach uniform, entropy %v", h)
	}
	sum := 0.0
	for i := 0; i < b.Bins(); i++ {
		sum += b.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mass not conserved: %v", sum)
	}
}

func TestQuantileCDFInverse(t *testing.T) {
	b := NewBelief(100, 24)
	b.ObserveRate(63, 0.15)
	b.ObserveRate(60, 0.15)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		x := b.Quantile(q)
		if got := b.CDF(x); math.Abs(got-q) > 1e-6 {
			t.Fatalf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	if b.Quantile(0) != 0 || b.Quantile(1) != 100 {
		t.Fatalf("extreme quantiles: %v, %v", b.Quantile(0), b.Quantile(1))
	}
}

func TestNonFiniteMeasurementsIgnored(t *testing.T) {
	b := NewBelief(100, 20)
	b.ObserveRate(math.NaN(), 0.1)
	b.ObserveRate(math.Inf(1), 0.1)
	b.ObserveBound(math.NaN(), true, 0.7)
	if h := b.EntropyBits(); math.Abs(h-math.Log2(20)) > 1e-9 {
		t.Fatalf("non-finite inputs must be ignored, entropy %v", h)
	}
}

func TestRenormUnderflowRestoresUniform(t *testing.T) {
	b := NewBelief(100, 20)
	// Drive the posterior to a corner, then feed a measurement so far
	// outside the support that every likelihood underflows.
	for i := 0; i < 50; i++ {
		b.ObserveRate(5, 0.02)
	}
	b.ObserveRate(1e9, 0.0001)
	sum := 0.0
	for i := 0; i < b.Bins(); i++ {
		if v := b.P(i); math.IsNaN(v) || v < 0 {
			t.Fatalf("bin %d invalid: %v", i, v)
		}
		sum += b.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mass not conserved after underflow: %v", sum)
	}
}
