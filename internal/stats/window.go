package stats

import (
	"math"

	"iqpaths/internal/quantile"
)

// Window is a fixed-capacity sliding window of float64 samples backed by
// an order-statistic multiset (internal/quantile), so insertion, eviction,
// quantile, and F(x) queries are all O(log n) — and, once the window has
// grown to capacity, allocation-free. This is the structure behind
// per-path CDF maintenance in the monitor: the paper computes the
// distribution of the last N (500–1000) bandwidth samples and reads
// percentile points from it every measurement interval.
//
// Every query is numerically identical to the previous sorted-slice
// implementation: the multiset stores the exact samples (no sketching or
// approximation), rank formulas are shared with CDF, and aggregate folds
// (StdDev, TailMean) run in ascending value order exactly as a sorted
// slice would. The one representational difference — -0.0 normalizes to
// +0.0 on insert — is arithmetically invisible to all consumers (ranks,
// sums against a +0.0 accumulator, and comparisons treat the zeros
// identically).
type Window struct {
	cap  int
	ring []float64 // insertion order
	head int       // index of oldest element in ring
	n    int       // number of valid elements
	sum  float64   // running sum, maintained in insertion order
	ms   quantile.Multiset
	iter quantile.Iter // reusable scratch for ascending folds and KS walks
	dist WindowDist    // preallocated Distribution view
}

// NewWindow creates a sliding window holding at most capacity samples.
// capacity must be ≥ 1 or NewWindow panics (a zero-size monitoring window is
// a programming error, not a runtime condition).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("stats: Window capacity must be >= 1")
	}
	w := &Window{
		cap:  capacity,
		ring: make([]float64, capacity),
	}
	w.ms.Init(capacity)
	w.dist.w = w
	return w
}

// Cap returns the window capacity.
func (w *Window) Cap() int { return w.cap }

// Len returns the number of samples currently held.
func (w *Window) Len() int { return w.n }

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.n == w.cap }

// Add inserts a sample, evicting the oldest if the window is full.
// Non-finite samples (NaN, ±Inf) are rejected: NaN breaks the ordered
// multiset's comparisons (a *different* element would get evicted),
// silently corrupting the window and every quantile/CDF served
// downstream; ±Inf poisons the running sum the same way.
func (w *Window) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if w.n == w.cap {
		old := w.ring[w.head]
		w.ring[w.head] = x
		w.head = (w.head + 1) % w.cap
		w.ms.Delete(old)
		w.sum -= old
	} else {
		w.ring[(w.head+w.n)%w.cap] = x
		w.n++
	}
	w.ms.Insert(x)
	w.sum += x
}

// Mean returns the mean of the samples in the window (0 when empty). It
// reads the running sum, which follows insertion order — the historical
// semantics the experiment goldens pin.
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// StdDev returns the sample standard deviation of the window contents,
// folding squared deviations in ascending value order (as a sorted slice
// would).
func (w *Window) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.Mean()
	s := 0.0
	w.iter.Reset(&w.ms)
	for {
		v, c, ok := w.iter.Next()
		if !ok {
			break
		}
		d := v - m
		for k := 0; k < c; k++ {
			s += d * d
		}
	}
	return math.Sqrt(s / float64(w.n-1))
}

// Quantile returns the nearest-rank q-quantile of the window contents.
func (w *Window) Quantile(q float64) float64 {
	if w.n == 0 {
		return 0
	}
	if q <= 0 {
		return w.ms.Min()
	}
	if q >= 1 {
		return w.ms.Max()
	}
	rank := int(math.Ceil(q*float64(w.n)-1e-9)) - 1 // slack mirrors CDF.Quantile
	if rank < 0 {
		rank = 0
	}
	if rank >= w.n {
		rank = w.n - 1
	}
	return w.ms.Select(rank)
}

// F returns the empirical probability P{X ≤ x} over the window contents.
func (w *Window) F(x float64) float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.ms.CountLE(x)) / float64(w.n)
}

// TailMean returns the mean of window samples ≤ b0 (Lemma 2's M[b0]),
// or 0 when no sample qualifies. The fold runs in ascending order.
func (w *Window) TailMean(b0 float64) float64 {
	s := 0.0
	cnt := 0
	w.iter.Reset(&w.ms)
	for {
		v, c, ok := w.iter.Next()
		if !ok || v > b0 {
			break
		}
		for k := 0; k < c; k++ {
			s += v
		}
		cnt += c
	}
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt)
}

// Min returns the smallest sample in the window (0 when empty).
func (w *Window) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.ms.Min()
}

// Max returns the largest sample in the window (0 when empty).
func (w *Window) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.ms.Max()
}

// Snapshot returns an immutable CDF of the current window contents.
func (w *Window) Snapshot() *CDF {
	buf := make([]float64, 2*w.n+1)
	w.ms.AppendSorted(buf[:0:w.n])
	return newCDF(buf, w.n)
}

// Values returns the window contents in insertion order (oldest first).
// The returned slice is freshly allocated.
func (w *Window) Values() []float64 {
	return w.AppendValues(make([]float64, 0, w.n))
}

// AppendValues appends the window contents in insertion order (oldest
// first) to dst and returns the extended slice — the allocation-free
// variant of Values for callers that keep a scratch buffer across calls.
func (w *Window) AppendValues(dst []float64) []float64 {
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.ring[(w.head+i)%w.cap])
	}
	return dst
}

// Reset empties the window without releasing its storage.
func (w *Window) Reset() {
	w.head, w.n, w.sum = 0, 0, 0
	w.ms.Init(w.cap)
}

// Distance returns the Kolmogorov–Smirnov distance between the window's
// empirical CDF and o: sup_x |F_w(x) − F_o(x)|. It walks the window's
// multiset in place — no snapshot, no allocation — and reproduces
// CDF.Distance comparison-for-comparison, so remap decisions made from a
// live window match ones made from a snapshot bit-exactly. Either side
// being empty yields 1 unless both are empty.
func (w *Window) Distance(o *CDF) float64 {
	if w.n == 0 && o.IsEmpty() {
		return 0
	}
	if w.n == 0 || o.IsEmpty() {
		return 1
	}
	d := 0.0
	i, j := 0, 0 // samples consumed on the window / o side
	n1, n2 := w.n, len(o.sorted)
	w.iter.Reset(&w.ms)
	cv, cc, _ := w.iter.Next() // n1 > 0, so the first group exists
	haveC := true
	for i < n1 && j < n2 {
		// x is the smaller of the two next support points; then both sides
		// consume every sample ≤ x (the window's groups are distinct and
		// ascending, so at most its current group qualifies).
		var x float64
		if haveC && cv <= o.sorted[j] {
			x = cv
		} else {
			x = o.sorted[j]
		}
		if haveC && cv <= x {
			i += cc
			cv, cc, haveC = w.iter.Next()
		}
		for j < n2 && o.sorted[j] <= x {
			j++
		}
		f1 := float64(i) / float64(n1)
		f2 := float64(j) / float64(n2)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}
	return d
}

// Dist returns a Distribution view over the live window. The view shares
// the window's storage (no copying): reads reflect the window's current
// contents, and every query answers exactly as a Snapshot CDF would —
// including Mean, which folds in ascending value order rather than
// reading the window's running sum. The returned pointer is owned by the
// window and stays valid (and current) across Adds.
func (w *Window) Dist() *WindowDist { return &w.dist }

// WindowDist adapts a live Window to the Distribution interface with
// CDF-snapshot semantics, letting per-window guarantee checks (Lemma 1/
// Lemma 2 revalidation) run against the monitor's current samples without
// allocating a snapshot.
type WindowDist struct{ w *Window }

// IsEmpty reports whether the underlying window holds no samples.
func (d *WindowDist) IsEmpty() bool { return d.w.n == 0 }

// N returns the number of samples in the underlying window.
func (d *WindowDist) N() int { return d.w.n }

// F returns P{X ≤ x}.
func (d *WindowDist) F(x float64) float64 { return d.w.F(x) }

// Quantile returns the nearest-rank q-quantile.
func (d *WindowDist) Quantile(q float64) float64 { return d.w.Quantile(q) }

// Min returns the smallest sample (0 when empty).
func (d *WindowDist) Min() float64 { return d.w.Min() }

// Max returns the largest sample (0 when empty).
func (d *WindowDist) Max() float64 { return d.w.Max() }

// Mean returns the sample mean folded in ascending value order — the
// order a Snapshot CDF's Mean uses, which differs in float rounding from
// the window's insertion-order running sum.
func (d *WindowDist) Mean() float64 {
	w := d.w
	if w.n == 0 {
		return 0
	}
	s := 0.0
	w.iter.Reset(&w.ms)
	for {
		v, c, ok := w.iter.Next()
		if !ok {
			break
		}
		for k := 0; k < c; k++ {
			s += v
		}
	}
	return s / float64(w.n)
}

// StdDev returns the sample standard deviation with CDF-snapshot
// semantics (deviations taken from the ascending-fold mean).
func (d *WindowDist) StdDev() float64 {
	w := d.w
	if w.n < 2 {
		return 0
	}
	m := d.Mean()
	s := 0.0
	w.iter.Reset(&w.ms)
	for {
		v, c, ok := w.iter.Next()
		if !ok {
			break
		}
		dv := v - m
		for k := 0; k < c; k++ {
			s += dv * dv
		}
	}
	return math.Sqrt(s / float64(w.n-1))
}

// TailMean returns Lemma 2's M[b0] over the window contents.
func (d *WindowDist) TailMean(b0 float64) float64 { return d.w.TailMean(b0) }
