package stats

import (
	"math"
)

// Values returns the window contents in insertion order (oldest first).
// The returned slice is freshly allocated.
func (w *Window) Values() []float64 {
	return w.AppendValues(make([]float64, 0, w.n))
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
