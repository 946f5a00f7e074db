// Package stats provides the streaming statistics primitives used throughout
// IQ-Paths: running moments, empirical CDFs, sliding sample windows with
// percentile queries, and the summary metrics (time-above-target fractions,
// jitter, relative error) that the paper's evaluation reports.
//
// All types in this package are deterministic and allocation-conscious; the
// sliding window is designed to sit on the monitoring fast path, where one
// sample arrives per measurement interval per path.
// None of the types are safe for concurrent use unless stated otherwise;
// callers (e.g. internal/monitor) serialize access.
package stats

import "math"

// Welford accumulates a running mean and variance using Welford's online
// algorithm, which is numerically stable for long sample streams.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 if no samples were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns 0 for fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Reset discards all accumulated state.
func (w *Welford) Reset() { *w = Welford{} }
