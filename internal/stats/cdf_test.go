package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	c := BuildCDF(nil)
	if !c.IsEmpty() {
		t.Fatal("expected empty CDF")
	}
	if c.F(10) != 0 || c.Quantile(0.5) != 0 || c.Mean() != 0 || c.TailMean(1) != 0 {
		t.Fatal("empty CDF queries should return zero")
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = BuildCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("BuildCDF mutated its input")
	}
}

func TestCDFFKnown(t *testing.T) {
	c := BuildCDF([]float64{1, 2, 3, 4, 5})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.2}, {2.5, 0.4}, {3, 0.6}, {5, 1}, {6, 1},
	}
	for _, tc := range cases {
		if got := c.F(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantileKnown(t *testing.T) {
	c := BuildCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.1, 10}, {0.10001, 20}, {0.5, 50}, {0.95, 100}, {1, 100},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// Property: for any sample set and any sample value v, F(v) ≥ the fraction of
// values strictly below v, and Quantile(F(v)) ≤ v.
func TestCDFQuantileInverseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e4))
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := BuildCDF(xs)
		for _, v := range xs {
			fv := c.F(v)
			if fv <= 0 || fv > 1 {
				return false
			}
			if c.Quantile(fv) > v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: F is monotone nondecreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 25
	}
	c := BuildCDF(xs)
	prev := -1.0
	for x := -100.0; x <= 100; x += 0.5 {
		f := c.F(x)
		if f < prev {
			t.Fatalf("F not monotone at %v: %v < %v", x, f, prev)
		}
		prev = f
	}
}

func TestCDFTailMean(t *testing.T) {
	c := BuildCDF([]float64{1, 2, 3, 10, 20})
	if got := c.TailMean(3); !almostEqual(got, 2, 1e-12) {
		t.Errorf("TailMean(3) = %v, want 2", got)
	}
	if got := c.TailMean(0.5); got != 0 {
		t.Errorf("TailMean below min = %v, want 0", got)
	}
	if got := c.TailMean(100); !almostEqual(got, 7.2, 1e-12) {
		t.Errorf("TailMean(100) = %v, want 7.2", got)
	}
}

func TestCDFDistanceIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if d := BuildCDF(xs).Distance(BuildCDF(xs)); d != 0 {
		t.Fatalf("distance of identical CDFs = %v, want 0", d)
	}
}

func TestCDFDistanceDisjoint(t *testing.T) {
	a := BuildCDF([]float64{1, 2, 3})
	b := BuildCDF([]float64{100, 200, 300})
	if d := a.Distance(b); !almostEqual(d, 1, 1e-12) {
		t.Fatalf("distance of disjoint CDFs = %v, want 1", d)
	}
}

func TestCDFDistanceSymmetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		a := make([]float64, 1+rng.Intn(50))
		b := make([]float64, 1+rng.Intn(50))
		for i := range a {
			a[i] = rng.Float64() * 10
		}
		for i := range b {
			b[i] = rng.Float64()*10 + rng.Float64()*5
		}
		ca, cb := BuildCDF(a), BuildCDF(b)
		d1, d2 := ca.Distance(cb), cb.Distance(ca)
		if !almostEqual(d1, d2, 1e-12) {
			t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("distance out of range: %v", d1)
		}
	}
}

func TestCDFDistanceEmptyRules(t *testing.T) {
	e := BuildCDF(nil)
	x := BuildCDF([]float64{1})
	if e.Distance(e) != 0 {
		t.Fatal("two empty CDFs should be distance 0")
	}
	if e.Distance(x) != 1 || x.Distance(e) != 1 {
		t.Fatal("empty vs non-empty should be distance 1")
	}
}

func TestCDFQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 30
	}
	c := BuildCDF(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.05, 0.1, 0.5, 0.9, 0.95, 0.99} {
		want := sorted[int(math.Ceil(q*1000))-1]
		if got := c.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestCDFMomentsExact checks that the moments a CDF computes when built
// are bit-equal to folding its sorted samples on demand, for CDFs built
// from a slice and snapshotted from a window.
func TestCDFMomentsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 64} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			w := NewWindow(64)
			for i := range xs {
				xs[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				w.Add(xs[i])
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			mean, std := foldMoments(sorted)
			for name, c := range map[string]*CDF{"BuildCDF": BuildCDF(xs), "Snapshot": w.Snapshot()} {
				if math.Float64bits(c.Mean()) != math.Float64bits(mean) ||
					math.Float64bits(c.StdDev()) != math.Float64bits(std) {
					t.Fatalf("%s n=%d: moments (%v, %v), folded (%v, %v)", name, n, c.Mean(), c.StdDev(), mean, std)
				}
			}
		}
	}
}

// foldMoments is the on-demand mean and sample standard deviation over
// an ascending slice.
func foldMoments(sorted []float64) (mean, std float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	s := 0.0
	for _, v := range sorted {
		d := v - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(n-1))
}

// TestCDFTailMeanExact checks TailMean's prefix sums bit for bit against
// folding the qualifying samples in ascending order, and against the live
// window view, on random windows with ties and zeros; a snapshot still
// takes its two allocations (the CDF and one slice for samples and sums).
func TestCDFTailMeanExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		w := NewWindow(1 + rng.Intn(80))
		for i := rng.Intn(120); i > 0; i-- {
			x := float64(rng.Intn(8)) * rng.ExpFloat64() // ties and zeros
			if rng.Intn(3) == 0 {
				x = float64(rng.Intn(4))
			}
			w.Add(x)
		}
		xs := w.Values()
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		cuts := append([]float64{-1, 0, 0.5, 1e9}, sorted...)
		for name, c := range map[string]*CDF{"BuildCDF": BuildCDF(xs), "Snapshot": w.Snapshot()} {
			for _, b0 := range cuts {
				sum, n := 0.0, 0
				for _, v := range sorted {
					if v <= b0 {
						sum += v
						n++
					}
				}
				want := 0.0
				if n > 0 {
					want = sum / float64(n)
				}
				got, live := c.TailMean(b0), w.Dist().TailMean(b0)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(live) != math.Float64bits(want) {
					t.Fatalf("trial %d %s TailMean(%v) = %v, window %v, folded %v", trial, name, b0, got, live, want)
				}
			}
		}
	}
	w := NewWindow(128)
	for i := 0; i < 128; i++ {
		w.Add(float64(i % 17))
	}
	if a := testing.AllocsPerRun(20, func() { w.Snapshot() }); a > 2 {
		t.Errorf("Snapshot allocates %v, want ≤ 2", a)
	}
}
