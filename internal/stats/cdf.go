package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function built from a finite
// sample set. It answers the two queries PGOS needs (paper §4, §5.2):
//
//	F(b)        = P{sample ≤ b}                       (Lemma 1's F^j)
//	Quantile(q) = inf{b : F(b) ≥ q}                   (percentile prediction)
//	TailMean(b) = E[X | X ≤ b]·F(b) contributions     (Lemma 2's M[b0])
//
// A CDF is immutable once built; Build sorts a private copy of the samples.
// Its mean and standard deviation are computed once, at build time, since
// the mapping reads them for every (stream, path) pair it tries, and so
// are its ascending prefix sums, which make TailMean a binary search.
type CDF struct {
	sorted    []float64
	prefix    []float64 // prefix[i] is the ascending fold of sorted[:i]
	mean, std float64
}

// BuildCDF constructs an empirical CDF from samples. The input slice is not
// retained or modified. BuildCDF on an empty slice yields a CDF whose
// queries return zero values; IsEmpty reports that state.
// testonly: builds the fixed distributions pgos's and the root package's
// tests feed the mapper.
func BuildCDF(samples []float64) *CDF {
	n := len(samples)
	buf := make([]float64, 2*n+1)
	copy(buf, samples)
	sort.Float64s(buf[:n])
	return newCDF(buf, n)
}

// newCDF wraps buf, which it takes ownership of: buf[:n] holds the
// samples in ascending order, and the prefix sums go into buf[n:2n+1],
// which must be zero. Sums and moments fold in ascending order.
func newCDF(buf []float64, n int) *CDF {
	c := &CDF{sorted: buf[:n:n], prefix: buf[n : 2*n+1]}
	if n == 0 {
		return c
	}
	for i, v := range c.sorted {
		c.prefix[i+1] = c.prefix[i] + v
	}
	c.mean = c.prefix[n] / float64(n)
	if n < 2 {
		return c
	}
	s := 0.0
	for _, v := range c.sorted {
		d := v - c.mean
		s += d * d
	}
	c.std = math.Sqrt(s / float64(n-1))
	return c
}

// IsEmpty reports whether the CDF was built from zero samples.
func (c *CDF) IsEmpty() bool { return len(c.sorted) == 0 }

// N returns the number of underlying samples.
func (c *CDF) N() int { return len(c.sorted) }

// F returns the empirical probability P{X ≤ x}.
func (c *CDF) F(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Number of samples ≤ x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank method:
// the smallest sample b with F(b) ≥ q. Quantile(0) is the minimum sample.
func (c *CDF) Quantile(q float64) float64 { return nearestRank(c.sorted, q) }

// nearestRank is Quantile over an ascending slice.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	// The 1e-9 slack absorbs float error in expressions like 1-0.95 so that
	// nominally exact ranks (0.05·100 = 5) do not round up a rank.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// Min returns the smallest sample (0 when empty).
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max returns the largest sample (0 when empty).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the mean of all samples (0 when empty).
func (c *CDF) Mean() float64 { return c.mean }

// StdDev returns the sample standard deviation of the underlying samples
// (0 below two samples).
func (c *CDF) StdDev() float64 { return c.std }

// TailMean returns M[b0] from Lemma 2: the mean of all samples ≤ b0.
// It returns 0 when no sample is ≤ b0.
func (c *CDF) TailMean(b0 float64) float64 {
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(b0, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return c.prefix[i] / float64(i)
}

// Distance returns the Kolmogorov–Smirnov distance between two empirical
// CDFs: sup_x |F1(x) − F2(x)|. The monitor uses it to detect the "CDF
// changes dramatically" condition that triggers PGOS remapping (Fig. 7,
// line 2). Either CDF being empty yields distance 1 unless both are empty.
// testonly: the reference oracle monitor's
// TestDramaticChangeMatchesSnapshotOracle checks Window.Distance against.
func (c *CDF) Distance(o *CDF) float64 {
	if c.IsEmpty() && o.IsEmpty() {
		return 0
	}
	if c.IsEmpty() || o.IsEmpty() {
		return 1
	}
	// Walk the merged support.
	d := 0.0
	i, j := 0, 0
	n1, n2 := len(c.sorted), len(o.sorted)
	for i < n1 && j < n2 {
		var x float64
		if c.sorted[i] <= o.sorted[j] {
			x = c.sorted[i]
			i++
		} else {
			x = o.sorted[j]
			j++
		}
		// Advance both past ties at x.
		for i < n1 && c.sorted[i] <= x {
			i++
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

// String renders a short human-readable summary.
func (c *CDF) String() string {
	if c.IsEmpty() {
		return "CDF{empty}"
	}
	return fmt.Sprintf("CDF{n=%d p10=%.3g p50=%.3g p90=%.3g}",
		c.N(), c.Quantile(0.10), c.Quantile(0.50), c.Quantile(0.90))
}
