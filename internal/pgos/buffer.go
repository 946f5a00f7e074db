package pgos

import "iqpaths/internal/stats"

// BufferBound returns the client-side buffer, in bits, that masks
// bandwidth shortfalls with probability p for a stream consuming
// rateMbps over scheduling windows of twSec, given the path's bandwidth
// distribution: within a window where the path delivers bw < rate, the
// playout buffer must cover (rate − bw)·tw bits, so the p-assurance
// bound is the shortfall at the (1−p) bandwidth quantile:
//
//	B(p) = tw · max(0, rate − Quantile(1−p)) · 10⁶
//
// The companion technical report's buffer analysis is the motivation:
// sizing buffers from the *distribution* covers the dips that sizing
// from the mean (which reports zero buffer whenever mean ≥ rate) misses.
func BufferBound(cdf stats.Distribution, rateMbps, twSec, p float64) float64 {
	if cdf.IsEmpty() || rateMbps <= 0 || twSec <= 0 {
		return 0
	}
	low := cdf.Quantile(1 - p)
	short := rateMbps - low
	if short <= 0 {
		return 0
	}
	return short * twSec * 1e6
}
