package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWindowPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewWindow(0)
}

func TestWindowBasicEviction(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{1, 2, 3} {
		w.Add(x)
	}
	if w.Len() != 3 {
		t.Fatalf("window should be full with 3: len=%d", w.Len())
	}
	w.Add(4) // evicts 1
	vals := w.Values()
	want := []float64{2, 3, 4}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", vals, want)
		}
	}
	if w.Mean() != 3 {
		t.Fatalf("mean = %v, want 3", w.Mean())
	}
}

func TestWindowQuantileAfterWrap(t *testing.T) {
	w := NewWindow(5)
	for i := 1; i <= 20; i++ {
		w.Add(float64(i))
	}
	// Window holds 16..20.
	if got := w.Quantile(0); got != 16 {
		t.Errorf("min = %v, want 16", got)
	}
	if got := w.Quantile(1); got != 20 {
		t.Errorf("max = %v, want 20", got)
	}
	if got := w.Quantile(0.5); got != 18 {
		t.Errorf("median = %v, want 18", got)
	}
}

func TestWindowDuplicateEviction(t *testing.T) {
	w := NewWindow(2)
	w.Add(5)
	w.Add(5)
	w.Add(5)
	if w.Len() != 2 || w.Quantile(0.5) != 5 {
		t.Fatalf("duplicate handling broken: len=%d", w.Len())
	}
	w.Add(7)
	// Window now {5, 7}.
	if w.F(5) != 0.5 || w.F(7) != 1 {
		t.Fatalf("F after duplicate eviction: F(5)=%v F(7)=%v", w.F(5), w.F(7))
	}
}

// Property: the window's sorted view always equals sorting its ring values,
// and sum/mean stay consistent, under arbitrary insertion sequences.
func TestWindowSortedInvariantProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		w := NewWindow(capacity)
		for i := 0; i < 200; i++ {
			w.Add(float64(rng.Intn(10))) // small domain forces duplicates
			vals := w.Values()
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			snap := w.Snapshot()
			if snap.N() != len(vals) {
				return false
			}
			for j, v := range sorted {
				if snap.sorted[j] != v {
					return false
				}
			}
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			if !almostEqual(w.Mean()*float64(len(vals)), sum, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSnapshotIsolation(t *testing.T) {
	w := NewWindow(4)
	w.Add(1)
	w.Add(2)
	snap := w.Snapshot()
	w.Add(3)
	if snap.N() != 2 {
		t.Fatal("snapshot should be immutable after further Adds")
	}
}

func TestWindowTailMeanMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWindow(100)
	for i := 0; i < 250; i++ {
		w.Add(rng.Float64() * 50)
	}
	snap := w.Snapshot()
	for _, b := range []float64{5, 20, 45, 60} {
		if got, want := w.TailMean(b), snap.TailMean(b); !almostEqual(got, want, 1e-9) {
			t.Errorf("TailMean(%v): window %v vs cdf %v", b, got, want)
		}
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(3)
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.Len() != 0 || w.Mean() != 0 || w.F(5) != 0 {
		t.Fatal("reset did not clear window")
	}
	w.Add(9)
	if w.Quantile(0.5) != 9 {
		t.Fatal("window unusable after reset")
	}
}

func TestWindowStdDevMatchesWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := NewWindow(64)
	var ref []float64
	for i := 0; i < 64; i++ {
		x := rng.NormFloat64()*4 + 10
		w.Add(x)
		ref = append(ref, x)
	}
	var wf Welford
	for _, x := range ref {
		wf.Add(x)
	}
	if !almostEqual(w.StdDev(), wf.StdDev(), 1e-9) {
		t.Fatalf("stddev %v vs %v", w.StdDev(), wf.StdDev())
	}
}

// TestWindowRejectsNonFinite is the regression test for the NaN-corruption
// bug: before the guard in Add, a NaN sample defeated removeSorted's
// binary search (NaN compares false with everything), so a *different*
// element was evicted and the sorted multiset, sum, and every downstream
// quantile/CDF drifted from the ring contents.
func TestWindowRejectsNonFinite(t *testing.T) {
	w := NewWindow(4)
	for _, x := range []float64{10, 20, 30, 40} {
		w.Add(x)
	}
	// Attack the full window with every non-finite class; each must be a
	// no-op.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w.Add(bad)
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d after non-finite adds, want 4", w.Len())
	}
	if got := w.Mean(); got != 25 {
		t.Fatalf("Mean = %v, want 25", got)
	}
	// Keep rolling the (full) window; the multiset invariant must survive:
	// sorted view, sum, and ring agree after further evictions.
	for _, x := range []float64{50, 60} {
		w.Add(x)
		w.Add(math.NaN())
	}
	vals := w.Values()
	if want := []float64{30, 40, 50, 60}; len(vals) != 4 {
		t.Fatalf("Values = %v, want %v", vals, want)
	} else {
		for i, v := range vals {
			if v != want[i] {
				t.Fatalf("Values = %v, want %v", vals, want)
			}
		}
	}
	if got := w.Mean(); got != 45 {
		t.Fatalf("Mean after eviction = %v, want 45", got)
	}
	if q := w.Quantile(0.5); q != 40 {
		t.Fatalf("median = %v, want 40", q)
	}
	if f := w.F(45); f != 0.5 {
		t.Fatalf("F(45) = %v, want 0.5", f)
	}
	snap := w.Snapshot()
	if snap.Min() != 30 || snap.Max() != 60 || snap.N() != 4 {
		t.Fatalf("snapshot min=%v max=%v n=%d", snap.Min(), snap.Max(), snap.N())
	}
}
