package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAPredictor(t *testing.T) {
	p := NewMA(3)
	for _, x := range []float64{1, 2, 3, 4} {
		p.Observe(x)
	}
	// Window holds 2,3,4.
	if v, ok := p.Predict(); !ok || v != 3 {
		t.Fatalf("MA = %v/%v, want 3/true", v, ok)
	}
}

func TestSMAPredictorIsCumulativeMean(t *testing.T) {
	p := NewSMA()
	for i := 1; i <= 100; i++ {
		p.Observe(float64(i))
	}
	if v, ok := p.Predict(); !ok || v != 50.5 {
		t.Fatalf("SMA = %v/%v, want 50.5", v, ok)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) should panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	p := NewEWMA(0.3)
	for i := 0; i < 200; i++ {
		p.Observe(42)
	}
	if v, _ := p.Predict(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("EWMA on constant = %v, want 42", v)
	}
}

func TestEWMAWeightsRecent(t *testing.T) {
	p := NewEWMA(0.5)
	p.Observe(0)
	p.Observe(100)
	if v, _ := p.Predict(); v != 50 {
		t.Fatalf("EWMA = %v, want 50", v)
	}
}

func TestAR1TracksAutocorrelatedSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewAR1(200)
	// Strongly mean-reverting AR(1) signal: AR1 should beat predicting
	// the last value.
	x, mu, phi := 50.0, 50.0, -0.6
	var errAR, errLast float64
	n := 0
	for i := 0; i < 2000; i++ {
		next := mu + phi*(x-mu) + rng.NormFloat64()*2
		if vA, okA := p.Predict(); okA && i > 0 {
			errAR += math.Abs(vA - next)
			errLast += math.Abs(x - next)
			n++
		}
		p.Observe(next)
		x = next
	}
	if n == 0 {
		t.Fatal("no predictions scored")
	}
	if errAR >= errLast {
		t.Fatalf("AR1 should beat last-value on AR signal: %v vs %v", errAR/float64(n), errLast/float64(n))
	}
}

func TestAR1WarmUp(t *testing.T) {
	p := NewAR1(10)
	for i := 0; i < 3; i++ {
		if _, ok := p.Predict(); ok {
			t.Fatal("AR1 should withhold predictions before 4 samples")
		}
		p.Observe(float64(i))
	}
	p.Observe(3)
	if _, ok := p.Predict(); !ok {
		t.Fatal("AR1 should predict after 4 samples")
	}
}

func TestStandardMeanPredictorsDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range StandardMeanPredictors(10) {
		if seen[p.Name()] {
			t.Fatalf("duplicate predictor name %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 predictors, got %d", len(seen))
	}
}

// Property: all predictors produce finite predictions for finite inputs.
func TestPredictorsFiniteProperty(t *testing.T) {
	f := func(raw []float64) bool {
		preds := StandardMeanPredictors(8)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e6)
			for _, p := range preds {
				p.Observe(x)
				if v, ok := p.Predict(); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
