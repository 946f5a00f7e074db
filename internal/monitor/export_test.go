package monitor

// Name returns the monitored path's label.
func (m *PathMonitor) Name() string { return m.name }

// Samples returns the number of bandwidth samples currently held.
func (m *PathMonitor) Samples() int { return m.bw.Len() }

// Percentile returns the q-quantile of the bandwidth window: the level the
// path exceeds with probability ≈ 1−q. On an empty or still-warming
// window the result is degenerate (an empty window quantile is 0, and a
// handful of samples pins every percentile to the same few values).
func (m *PathMonitor) Percentile(q float64) float64 { return m.bw.Quantile(q) }

// ExceedProbability estimates P{bandwidth ≥ mbps} from the window —
// Lemma 1's 1 − F^j(b).
func (m *PathMonitor) ExceedProbability(mbps float64) float64 {
	if m.bw.Len() == 0 {
		return 0
	}
	return 1 - m.bw.F(mbps*(1-1e-12))
}
