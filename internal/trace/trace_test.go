package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iqpaths/internal/stats"
)

func TestCBR(t *testing.T) {
	g := NewCBR(10)
	for i := 0; i < 5; i++ {
		if g.Next() != 10 {
			t.Fatal("CBR must be constant")
		}
	}
	if NewCBR(-5).Next() != 0 {
		t.Fatal("negative CBR clamps to 0")
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGaussian(50, 5, rng)
	var w stats.Welford
	for i := 0; i < 20000; i++ {
		w.Add(g.Next())
	}
	if math.Abs(w.Mean()-50) > 0.5 {
		t.Errorf("mean = %v, want ~50", w.Mean())
	}
	if math.Abs(w.StdDev()-5) > 0.5 {
		t.Errorf("stddev = %v, want ~5", w.StdDev())
	}
}

func TestGaussianNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGaussian(1, 10, rng)
	for i := 0; i < 5000; i++ {
		if g.Next() < 0 {
			t.Fatal("Gaussian emitted negative rate")
		}
	}
}

func TestParetoOnOffEmitsOnlyTwoLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewParetoOnOff(25, 1.5, 5, 10, rng)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v != 0 && v != 25 {
			t.Fatalf("unexpected level %v", v)
		}
	}
}

func TestParetoOnOffMeanDuty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewParetoOnOff(10, 1.8, 5, 15, rng)
	on := 0
	n := 200000
	for i := 0; i < n; i++ {
		if g.Next() > 0 {
			on++
		}
	}
	duty := float64(on) / float64(n)
	// Expected ~ 5/(5+15) = 0.25; heavy tails make this loose.
	if duty < 0.10 || duty > 0.45 {
		t.Fatalf("duty = %v, want ~0.25 (loose)", duty)
	}
}

func TestRegimeWalkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewRegimeWalk(30, 20, 40, 10, 5, rng)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 20 || v > 40 {
			t.Fatalf("regime escaped bounds: %v", v)
		}
	}
}

func TestRegimeWalkDwells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewRegimeWalk(30, 0, 100, 10, 50, rng)
	changes := 0
	prev := g.Next()
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v != prev {
			changes++
		}
		prev = v
	}
	// With mean dwell 50, expect ~200 changes, not ~10000.
	if changes > 1000 {
		t.Fatalf("regime changes too often: %d in 10000 ticks", changes)
	}
	if changes == 0 {
		t.Fatal("regime never changed")
	}
}

func TestSum(t *testing.T) {
	g := NewSum(NewCBR(30), NewCBR(40))
	if v := g.Next(); v != 70 {
		t.Fatalf("sum = %v, want 70", v)
	}
}

func TestNLANRDeterministicUnderSeed(t *testing.T) {
	a := Take(NewNLANRLike(DefaultNLANR(), rand.New(rand.NewSource(9))), 1000)
	b := Take(NewNLANRLike(DefaultNLANR(), rand.New(rand.NewSource(9))), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Take(NewNLANRLike(DefaultNLANR(), rand.New(rand.NewSource(10))), 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestNLANRNoiseLevel(t *testing.T) {
	g := NewNLANRLike(DefaultNLANR(), rand.New(rand.NewSource(11)))
	series := Take(g, 50000)
	var w stats.Welford
	for _, v := range series {
		if v < 0 {
			t.Fatal("negative cross traffic")
		}
		w.Add(v)
	}
	// Calibration: mean load well inside a 100 Mbps link with nontrivial noise.
	if w.Mean() < 15 || w.Mean() > 75 {
		t.Errorf("mean cross load %v outside plausible band", w.Mean())
	}
	if w.StdDev() < 3 {
		t.Errorf("trace stddev %v too small to exercise prediction", w.StdDev())
	}
}

func TestAvailableBandwidth(t *testing.T) {
	got := AvailableBandwidth(100, []float64{30, 150, 0})
	want := []float64{70, 0, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("avail = %v, want %v", got, want)
		}
	}
}

// Property: generators never emit negative or NaN rates.
func TestGeneratorsNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gens := []Generator{
			NewGaussian(10, 20, rng),
			NewParetoOnOff(30, 1.5, 3, 9, rng),
			NewRegimeWalk(20, 0, 60, 15, 10, rng),
			NewNLANRLike(DefaultNLANR(), rng),
		}
		for i := 0; i < 500; i++ {
			for _, g := range gens {
				v := g.Next()
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
