package bwest

import (
	"math"
	"math/rand"
	"testing"
)

func TestEstimatorDefaults(t *testing.T) {
	e := NewEstimator(Config{Paths: 500})
	if e.Budget() != 10 {
		t.Fatalf("default budget = %d, want 500/50 = 10", e.Budget())
	}
	if e.PlannerName() != "active" {
		t.Fatalf("default planner = %q", e.PlannerName())
	}
	e2 := NewEstimator(Config{Paths: 3})
	if e2.Budget() != 1 {
		t.Fatalf("small overlay budget = %d, want 1", e2.Budget())
	}
}

func TestObserveProbeConcentratesPosterior(t *testing.T) {
	e := NewEstimator(Config{Paths: 4, MaxMbps: 100, Bins: 24})
	h0 := e.EntropyBits(1)
	for i := 0; i < 8; i++ {
		e.ObserveProbe(1, 55)
	}
	if h := e.EntropyBits(1); h >= h0 {
		t.Fatalf("entropy did not drop: %v -> %v", h0, h)
	}
	if m := e.Mean(1); math.Abs(m-55) > 8 {
		t.Fatalf("posterior mean %v too far from 55", m)
	}
	// Unobserved paths untouched.
	if h := e.EntropyBits(0); math.Abs(h-math.Log2(24)) > 1e-9 {
		t.Fatalf("path 0 should be untouched, entropy %v", h)
	}
}

func TestSharedBottleneckPropagation(t *testing.T) {
	e := NewEstimator(Config{Paths: 2})
	e.DeclareShared(0, 1)
	// Correlated innovations: both paths repeatedly surprised the same
	// way. Probe them alternately so the tracker sees paired z-scores.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 40; k++ {
		v := 30 + 10*rng.Float64()
		e.ObserveProbe(0, v)
		e.ObserveProbe(1, v+rng.Float64())
	}
	rho := e.correl.Coef(0, 1)
	if rho < 0.3 {
		t.Fatalf("expected positive correlation after paired surprises, got %v", rho)
	}
	// Now a probe on path 0 alone should move path 1's posterior too.
	before := e.Mean(1)
	for k := 0; k < 6; k++ {
		e.ObserveProbe(0, 80)
	}
	after := e.Mean(1)
	if after <= before {
		t.Fatalf("correlated path did not follow: %v -> %v", before, after)
	}
}

func TestLazyDecayRaisesEntropyAndGain(t *testing.T) {
	e := NewEstimator(Config{Paths: 3})
	for i := 0; i < 10; i++ {
		e.ObserveProbe(2, 40)
	}
	hConverged := e.EntropyBits(2)
	gConverged := e.gain[2]
	// Many idle rounds accumulate; the next touch applies them lazily.
	for r := 0; r < 60; r++ {
		e.PlanTrains(1)
	}
	h := e.EntropyBits(2)
	if h <= hConverged {
		t.Fatalf("idle decay should raise entropy: %v -> %v", hConverged, h)
	}
	if g := e.gain[2]; g <= gConverged {
		t.Fatalf("idle decay should raise expected gain: %v -> %v", gConverged, g)
	}
}

func TestPlanTrainsBudgetAndDeterminism(t *testing.T) {
	mk := func() *Estimator {
		e := NewEstimator(Config{Paths: 50, Budget: 5})
		for i := 0; i < 50; i += 7 {
			e.ObserveProbe(i, float64(20+i))
		}
		return e
	}
	a, b := mk(), mk()
	for r := 0; r < 20; r++ {
		pa := a.PlanTrains(0)
		pb := b.PlanTrains(0)
		if len(pa) != 5 {
			t.Fatalf("round %d: plan size %d, want budget 5", r, len(pa))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d: plans diverge: %v vs %v", r, pa, pb)
			}
		}
		seen := map[int]bool{}
		for _, p := range pa {
			if p < 0 || p >= 50 {
				t.Fatalf("plan index %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("duplicate path %d in plan %v", p, pa)
			}
			seen[p] = true
		}
	}
}

func TestRoundRobinPlannerSweeps(t *testing.T) {
	e := NewEstimator(Config{Paths: 7, Budget: 3, Planner: NewRoundRobinPlanner()})
	var got []int
	for r := 0; r < 7; r++ { // 7 rounds * 3 = 21 = 3 full sweeps
		got = append(got, e.PlanTrains(0)...)
	}
	if len(got) != 21 {
		t.Fatalf("planned %d trains, want 21: %v", len(got), got)
	}
	for i, p := range got {
		if p != i%7 {
			t.Fatalf("train %d on path %d, want %d (index-order sweep): %v", i, p, i%7, got)
		}
	}
}

func TestActivePlannerPrefersUncertainPaths(t *testing.T) {
	e := NewEstimator(Config{Paths: 10, Budget: 3})
	// Converge paths 0-6 hard; leave 7, 8, 9 uniform.
	for i := 0; i <= 6; i++ {
		for k := 0; k < 12; k++ {
			e.ObserveProbe(i, 50)
		}
	}
	plan := e.PlanTrains(0)
	want := map[int]bool{7: true, 8: true, 9: true}
	for _, p := range plan {
		if !want[p] {
			t.Fatalf("active plan %v picked converged path %d over uniform 7/8/9", plan, p)
		}
	}
}

func TestStalenessBonusRecyclesPaths(t *testing.T) {
	e := NewEstimator(Config{Paths: 4, Budget: 1})
	// Unprobed paths gain both staleness bonus and decayed entropy, so
	// every path must appear within a few rounds.
	seen := map[int]bool{}
	for r := 0; r < 12; r++ {
		for _, p := range e.PlanTrains(0) {
			seen[p] = true
			e.ObserveProbe(p, 40) // refresh lastTouch
		}
	}
	if len(seen) != 4 {
		t.Fatalf("staleness bonus failed to rotate coverage, saw %v", seen)
	}
}

func TestPassiveEvidence(t *testing.T) {
	e := NewEstimator(Config{Paths: 1, MaxMbps: 100, Bins: 20})
	// Loss at 50 Mbps send rate pushes mass below 50.
	for k := 0; k < 6; k++ {
		e.ObserveLoss(0, 0.1, 50)
	}
	if got := e.CDFAt(0, 50); got < 0.6 {
		t.Fatalf("loss evidence should pile mass below send rate, CDF(50)=%v", got)
	}
	// Clean intervals push the other way.
	e2 := NewEstimator(Config{Paths: 1, MaxMbps: 100, Bins: 20})
	for k := 0; k < 6; k++ {
		e2.ObserveLoss(0, 0, 50)
	}
	if got := e2.CDFAt(0, 50); got > 0.4 {
		t.Fatalf("clean-interval evidence should lift mass above send rate, CDF(50)=%v", got)
	}
	// RTT inflation versus min baseline nudges the posterior down.
	e3 := NewEstimator(Config{Paths: 1})
	e3.ObserveRTT(0, 0.020)
	m0 := e3.Mean(0)
	for k := 0; k < 6; k++ {
		e3.ObserveRTT(0, 0.080)
	}
	if m := e3.Mean(0); m >= m0 {
		t.Fatalf("RTT inflation should lower posterior mean: %v -> %v", m0, m)
	}
}

func TestSummarizeAndEntropyTelemetryShape(t *testing.T) {
	e := NewEstimator(Config{Paths: 3})
	e.ObserveProbe(1, 30)
	for i := 0; i < 3; i++ {
		if q05, mean, q95 := e.Quantile(i, 0.05), e.Mean(i), e.Quantile(i, 0.95); q05 > mean || mean > q95 {
			t.Fatalf("path %d quantiles out of order: %v %v %v", i, q05, mean, q95)
		}
	}
	if e.EntropyBits(1) >= e.EntropyBits(0) {
		t.Fatalf("observed path should have lower entropy: %v >= %v", e.EntropyBits(1), e.EntropyBits(0))
	}
	if me := e.MeanEntropyBits(); me <= 0 {
		t.Fatalf("mean entropy %v", me)
	}
}
