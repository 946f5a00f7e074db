package stats

import (
	"math"
	"sort"
)

// Summary condenses a throughput (or latency) series into the quantities the
// paper's Figure 11 reports per stream and per algorithm: the mean, the
// standard deviation, and the throughput levels sustained for 95 % and 99 %
// of the time (i.e. the 5th and 1st percentiles of the series).
type Summary struct {
	N       int
	Mean    float64
	StdDev  float64
	Min     float64
	Max     float64
	P05     float64 // level exceeded 95 % of the time
	P01     float64 // level exceeded 99 % of the time
	Median  float64
	Samples []float64 // sorted copy; retained for CDF rendering
}

// Summarize computes a Summary from a series. The input is not modified.
func Summarize(series []float64) Summary {
	s := Summary{N: len(series)}
	if len(series) == 0 {
		return s
	}
	sorted := make([]float64, len(series))
	copy(sorted, series)
	sort.Float64s(sorted)
	var w Welford
	for _, v := range series {
		w.Add(v)
	}
	s.Mean = w.Mean()
	s.StdDev = w.StdDev()
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P05 = nearestRank(sorted, 0.05)
	s.P01 = nearestRank(sorted, 0.01)
	s.Median = nearestRank(sorted, 0.50)
	s.Samples = sorted
	return s
}

// FractionAtLeast returns the fraction of samples ≥ target: the paper's
// "receives its required bandwidth 100P % of the time" metric.
func (s Summary) FractionAtLeast(target float64) float64 {
	if s.N == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.Samples, target)
	return float64(s.N-i) / float64(s.N)
}

// SustainedAt returns the throughput level sustained for the given fraction
// of time, e.g. SustainedAt(0.95) is the level the stream met or exceeded
// 95 % of the time.
func (s Summary) SustainedAt(fraction float64) float64 {
	if s.N == 0 {
		return 0
	}
	return nearestRank(s.Samples, 1-fraction)
}

// RelativeError returns |predicted−actual| / |actual|, the Fig. 4 error
// metric. When actual is zero it returns |predicted| (the absolute error),
// avoiding a division blow-up on idle intervals.
func RelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.Abs(predicted)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Jitter computes the mean absolute deviation of consecutive inter-arrival
// (or inter-completion) gaps from their overall mean, the frame-jitter
// metric quoted in §6.1 (2.0 ms under MSFQ vs 1.4 ms under PGOS).
// times must be in nondecreasing order; fewer than 3 points yield 0.
func Jitter(times []float64) float64 {
	if len(times) < 3 {
		return 0
	}
	gaps := make([]float64, len(times)-1)
	mean := 0.0
	for i := 1; i < len(times); i++ {
		gaps[i-1] = times[i] - times[i-1]
		mean += gaps[i-1]
	}
	mean /= float64(len(gaps))
	dev := 0.0
	for _, g := range gaps {
		dev += math.Abs(g - mean)
	}
	return dev / float64(len(gaps))
}
