package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the naive sorted-slice multiset the treap must match exactly.
type oracle struct {
	vals []float64
}

func (o *oracle) insert(x float64) {
	if x == 0 {
		x = 0
	}
	i := sort.SearchFloat64s(o.vals, x)
	o.vals = append(o.vals, 0)
	copy(o.vals[i+1:], o.vals[i:])
	o.vals[i] = x
}

func (o *oracle) delete(x float64) bool {
	if x == 0 {
		x = 0
	}
	i := sort.SearchFloat64s(o.vals, x)
	if i >= len(o.vals) || o.vals[i] != x {
		return false
	}
	o.vals = append(o.vals[:i], o.vals[i+1:]...)
	return true
}

func (o *oracle) countLE(x float64) int {
	return sort.SearchFloat64s(o.vals, math.Nextafter(x, math.Inf(1)))
}

// checkAll compares every query the multiset answers against the oracle.
func checkAll(t *testing.T, step int, m *Multiset, o *oracle, probes []float64) {
	t.Helper()
	if m.Len() != len(o.vals) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, m.Len(), len(o.vals))
	}
	if len(o.vals) > 0 {
		if got, want := m.Min(), o.vals[0]; got != want {
			t.Fatalf("step %d: Min = %v, oracle %v", step, got, want)
		}
		if got, want := m.Max(), o.vals[len(o.vals)-1]; got != want {
			t.Fatalf("step %d: Max = %v, oracle %v", step, got, want)
		}
		for k := 0; k < len(o.vals); k++ {
			if got, want := m.Select(k), o.vals[k]; got != want {
				t.Fatalf("step %d: Select(%d) = %v, oracle %v", step, k, got, want)
			}
		}
	}
	for _, x := range probes {
		if got, want := m.CountLE(x), o.countLE(x); got != want {
			t.Fatalf("step %d: CountLE(%v) = %d, oracle %d", step, x, got, want)
		}
	}
	got := m.AppendSorted(nil)
	if len(got) != len(o.vals) {
		t.Fatalf("step %d: AppendSorted len = %d, oracle %d", step, len(got), len(o.vals))
	}
	for i := range got {
		if got[i] != o.vals[i] {
			t.Fatalf("step %d: AppendSorted[%d] = %v, oracle %v", step, i, got[i], o.vals[i])
		}
	}
	// The iterator must walk the same sequence, value by distinct value.
	var it Iter
	it.Reset(m)
	i := 0
	for {
		v, c, ok := it.Next()
		if !ok {
			break
		}
		for d := 0; d < c; d++ {
			if i >= len(o.vals) || o.vals[i] != v {
				t.Fatalf("step %d: iter value %v (dup %d) disagrees at index %d", step, v, d, i)
			}
			i++
		}
	}
	if i != len(o.vals) {
		t.Fatalf("step %d: iter yielded %d values, oracle %d", step, i, len(o.vals))
	}
}

// TestRandomizedAgainstOracle drives random insert/evict/query sequences
// over several value distributions (continuous, heavily duplicated,
// mixed-sign zeros) and demands exact agreement with the sorted slice.
func TestRandomizedAgainstOracle(t *testing.T) {
	dists := map[string]func(r *rand.Rand) float64{
		"continuous": func(r *rand.Rand) float64 { return r.NormFloat64() * 100 },
		"duplicated": func(r *rand.Rand) float64 { return float64(r.Intn(8)) },
		"zeros":      func(r *rand.Rand) float64 { return float64(r.Intn(3)-1) * 0.0 }, // ±0.0 and -0.0
		"mixed": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return float64(r.Intn(5))
			}
			return r.Float64() * 10
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			m := New(0)
			o := &oracle{}
			var live []float64 // values currently stored, for evictions
			for step := 0; step < 3000; step++ {
				if len(live) > 0 && r.Intn(3) == 0 {
					k := r.Intn(len(live))
					x := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if got, want := m.Delete(x), o.delete(x); got != want {
						t.Fatalf("step %d: Delete(%v) = %v, oracle %v", step, x, got, want)
					}
				} else {
					x := draw(r)
					m.Insert(x)
					o.insert(x)
					live = append(live, x)
				}
				if step%251 == 0 {
					probes := []float64{draw(r), draw(r), math.Inf(-1), math.Inf(1), 0}
					checkAll(t, step, m, o, probes)
				}
			}
			checkAll(t, 3000, m, o, []float64{0, 1, 2, 3, -1, 0.5})
		})
	}
}

// TestSlidingWindowPattern runs the exact pattern stats.Window drives: a
// bounded window where each insert past capacity evicts the oldest value.
func TestSlidingWindowPattern(t *testing.T) {
	const capN = 64
	r := rand.New(rand.NewSource(7))
	m := New(capN)
	o := &oracle{}
	var ring []float64
	for step := 0; step < 5000; step++ {
		x := math.Round(r.NormFloat64()*10) / 2 // plenty of duplicates
		if len(ring) == capN {
			old := ring[0]
			ring = ring[1:]
			if !m.Delete(old) {
				t.Fatalf("step %d: evict %v missing", step, old)
			}
			o.delete(old)
		}
		ring = append(ring, x)
		m.Insert(x)
		o.insert(x)
		if m.Len() != len(o.vals) {
			t.Fatalf("step %d: len mismatch", step)
		}
		if step%500 == 0 {
			checkAll(t, step, m, o, []float64{x, x + 0.25, -100, 100})
		}
	}
	checkAll(t, 5000, m, o, []float64{0, 5, -5})
}

func TestDeleteMissing(t *testing.T) {
	m := New(4)
	m.Insert(1)
	m.Insert(2)
	if m.Delete(3) {
		t.Fatal("Delete(3) should report false")
	}
	if !m.Delete(1) || m.Len() != 1 {
		t.Fatal("Delete(1) failed")
	}
	if m.Delete(1) {
		t.Fatal("second Delete(1) should report false")
	}
}

func TestInsertNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(NaN) did not panic")
		}
	}()
	New(0).Insert(math.NaN())
}

// TestDeterministicShape pins that two multisets fed the same operation
// sequence answer every query identically (the splitmix64 priorities are
// a fixed stream, so even the internal shape matches).
func TestDeterministicShape(t *testing.T) {
	build := func() *Multiset {
		m := New(0)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			m.Insert(r.Float64())
			if i%3 == 2 {
				m.Delete(m.Select(r.Intn(m.Len())))
			}
		}
		return m
	}
	a, b := build(), build()
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for k := 0; k < a.Len(); k++ {
		if a.Select(k) != b.Select(k) {
			t.Fatalf("Select(%d) differs", k)
		}
	}
}

// TestSteadyStateZeroAlloc pins the sliding-window cycle allocation-free
// once the slab is grown.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const capN = 500
	m := New(capN)
	var ring [capN]float64
	for i := 0; i < capN; i++ {
		ring[i] = float64(i % 37)
		m.Insert(ring[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		old := ring[i%capN]
		m.Delete(old)
		x := float64((i * 7) % 53)
		ring[i%capN] = x
		m.Insert(x)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert+evict allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	for _, n := range []int{100, 500, 5000} {
		b.Run(sizeName(n), func(b *testing.B) {
			m := New(n)
			ring := make([]float64, n)
			r := rand.New(rand.NewSource(1))
			for i := range ring {
				ring[i] = r.NormFloat64()
				m.Insert(ring[i])
			}
			vals := make([]float64, 4096)
			for i := range vals {
				vals[i] = r.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				m.Delete(ring[k])
				x := vals[i%len(vals)]
				ring[k] = x
				m.Insert(x)
			}
		})
	}
}

func BenchmarkCountLE(b *testing.B) {
	for _, n := range []int{100, 500, 5000} {
		b.Run(sizeName(n), func(b *testing.B) {
			m := New(n)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				m.Insert(r.NormFloat64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.CountLE(float64(i%7) - 3)
			}
		})
	}
}

func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{100, 500, 5000} {
		b.Run(sizeName(n), func(b *testing.B) {
			m := New(n)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				m.Insert(r.NormFloat64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Select(i % n)
			}
		})
	}
}

// BenchmarkNaiveInsertEvict measures the sorted-slice baseline the treap
// replaces (memmove-dominated O(n) per op), for the DESIGN.md table.
func BenchmarkNaiveInsertEvict(b *testing.B) {
	for _, n := range []int{100, 500, 5000} {
		b.Run(sizeName(n), func(b *testing.B) {
			o := &oracle{}
			ring := make([]float64, n)
			r := rand.New(rand.NewSource(1))
			for i := range ring {
				ring[i] = r.NormFloat64()
				o.insert(ring[i])
			}
			vals := make([]float64, 4096)
			for i := range vals {
				vals[i] = r.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				o.delete(ring[k])
				x := vals[i%len(vals)]
				ring[k] = x
				o.insert(x)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 100:
		return "n=100"
	case 500:
		return "n=500"
	case 5000:
		return "n=5000"
	}
	return "n=?"
}
