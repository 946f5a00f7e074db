// Package monitor implements IQ-Paths' Statistical Monitoring component
// (Fig. 3): per-path tracking of available bandwidth (as a sliding-window
// empirical distribution), loss rate, and RTT, and the queries PGOS makes
// against them — percentile points, exceed probabilities, Lemma-2 tail
// means, and detection of the "CDF changes dramatically" condition that
// triggers resource remapping.
package monitor

import (
	"math"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
)

// PathMonitor accumulates one path's measurements. Not safe for
// concurrent use; the overlay node's event loop owns it.
type PathMonitor struct {
	name string
	bw   *stats.Window
	rtt  *stats.Window
	loss *stats.Window
	// baseline is the bandwidth CDF snapshot taken at the last resource
	// mapping; DramaticChange compares against it.
	baseline *stats.CDF
	minWarm  int
	// bwGen counts mutations of the bandwidth window, so a reader can
	// tell that a CDF it snapshotted earlier is still current.
	bwGen uint64
}

// New creates a monitor keeping the last windowN bandwidth samples
// (paper: 500–1000). minWarm is the sample count before queries are
// considered warmed; ≤0 selects windowN/5 (min 10).
func New(name string, windowN, minWarm int) *PathMonitor {
	if windowN < 2 {
		panic("monitor: windowN must be >= 2")
	}
	if minWarm <= 0 {
		minWarm = windowN / 5
		if minWarm < 10 {
			minWarm = 10
		}
	}
	return &PathMonitor{
		name:    name,
		bw:      stats.NewWindow(windowN),
		rtt:     stats.NewWindow(windowN),
		loss:    stats.NewWindow(windowN),
		minWarm: minWarm,
	}
}

// Name returns the monitored path's label.
func (m *PathMonitor) Name() string { return m.name }

// ObserveBandwidth records one available-bandwidth sample in Mbps.
func (m *PathMonitor) ObserveBandwidth(mbps float64) {
	m.bw.Add(mbps)
	m.bwGen++
}

// BandwidthGen returns the bandwidth-sample generation: it changes
// whenever the bandwidth window may have, so an unchanged generation
// means a CDF taken earlier still describes the window.
func (m *PathMonitor) BandwidthGen() uint64 { return m.bwGen }

// ObserveRTT records one round-trip-time sample in seconds.
func (m *PathMonitor) ObserveRTT(sec float64) { m.rtt.Add(sec) }

// ObserveLoss records one loss-rate sample in [0, 1].
func (m *PathMonitor) ObserveLoss(rate float64) { m.loss.Add(rate) }

// Warm reports whether enough bandwidth samples have accumulated for the
// statistical queries to be meaningful.
func (m *PathMonitor) Warm() bool { return m.bw.Len() >= m.minWarm }

// Samples returns the number of bandwidth samples currently held.
func (m *PathMonitor) Samples() int { return m.bw.Len() }

// MeanBandwidth returns the windowed mean available bandwidth (the value a
// mean-predictor-based scheduler like MSFQ consumes).
func (m *PathMonitor) MeanBandwidth() float64 { return m.bw.Mean() }

// BandwidthStdDev returns the windowed standard deviation.
func (m *PathMonitor) BandwidthStdDev() float64 { return m.bw.StdDev() }

// Percentile returns the q-quantile of the bandwidth window: the level the
// path exceeds with probability ≈ 1−q. On an empty or still-warming
// window the result is degenerate (an empty window quantile is 0, and a
// handful of samples pins every percentile to the same few values);
// callers that must distinguish "unknown" from "genuinely zero" use
// PercentileOK.
func (m *PathMonitor) Percentile(q float64) float64 { return m.bw.Quantile(q) }

// PercentileOK is Percentile with an explicit insufficient-samples
// signal: ok is false until the bandwidth window is Warm, and the value
// is only meaningful when ok. Admission control and the bwest estimator
// both need the distinction — a cold path must read as "unknown" (defer,
// keep probing), never as "0 Mbps" (reject).
func (m *PathMonitor) PercentileOK(q float64) (mbps float64, ok bool) {
	if !m.Warm() {
		return 0, false
	}
	return m.bw.Quantile(q), true
}

// minPassiveSamples is the sample floor for the passive RTT/loss
// windows' *OK queries. Passive samples arrive for free with every
// probe round, so the floor is small — enough that a quantile is not a
// single-sample artifact.
const minPassiveSamples = 8

// RTTPercentileOK is RTTPercentile with an insufficient-samples signal
// (false below a small fixed floor of RTT samples).
func (m *PathMonitor) RTTPercentileOK(q float64) (sec float64, ok bool) {
	if m.rtt.Len() < minPassiveSamples {
		return 0, false
	}
	return m.rtt.Quantile(q), true
}

// LossPercentileOK is LossPercentile with an insufficient-samples signal
// (false below a small fixed floor of loss samples).
func (m *PathMonitor) LossPercentileOK(q float64) (rate float64, ok bool) {
	if m.loss.Len() < minPassiveSamples {
		return 0, false
	}
	return m.loss.Quantile(q), true
}

// ExceedProbability estimates P{bandwidth ≥ mbps} from the window —
// Lemma 1's 1 − F^j(b).
func (m *PathMonitor) ExceedProbability(mbps float64) float64 {
	if m.bw.Len() == 0 {
		return 0
	}
	return 1 - m.bw.F(mbps*(1-1e-12))
}

// TailMean returns M[b0], the mean of bandwidth samples ≤ b0 (Lemma 2).
func (m *PathMonitor) TailMean(b0 float64) float64 { return m.bw.TailMean(b0) }

// ExpectedViolations evaluates Lemma 2's bound on E[Z], the expected number
// of packets missing their deadline in a scheduling window of tw seconds
// for a stream needing x packets of s bits each. With b0 = x·s/tw the
// required bandwidth, F the window CDF, and M[b0] = E[b | b ≤ b0]:
//
//	E[Z] ≤ Σ_{b ≤ b0} (x − tw·b/s) dF(b) = F(b0)·(x − (tw/s)·M[b0])
//
// (the paper states the bound as x·F(b0) − (tw/s)·M[b0] with M as "the
// mean of b for all b ≤ b0"; reading M as the conditional mean requires
// the F(b0) factor shown here for the bound to follow from the CDF, so
// that is the form implemented). The result is clamped at 0.
func (m *PathMonitor) ExpectedViolations(x int, sBits, twSec float64) float64 {
	if m.bw.Len() == 0 || x <= 0 {
		return 0
	}
	b0 := float64(x) * sBits / twSec / 1e6 // Mbps
	f := m.bw.F(b0 * (1 - 1e-12))
	mb := m.bw.TailMean(b0) * 1e6 // bits/sec
	ez := f * (float64(x) - (twSec/sBits)*mb)
	if ez < 0 {
		return 0
	}
	return ez
}

// CDF returns an immutable snapshot of the current bandwidth distribution.
func (m *PathMonitor) CDF() *stats.CDF { return m.bw.Snapshot() }

// Dist returns a live, allocation-free Distribution view of the bandwidth
// window. Answers match CDF() exactly but track the window as samples
// arrive; callers needing an immutable baseline must use CDF().
func (m *PathMonitor) Dist() stats.Distribution { return m.bw.Dist() }

// MeanRTT returns the windowed mean RTT in seconds.
func (m *PathMonitor) MeanRTT() float64 { return m.rtt.Mean() }

// RTTPercentile returns the q-quantile of the RTT window — the paper
// notes RTT guarantees are *easier* to make than bandwidth ones, and this
// is the query they rest on.
func (m *PathMonitor) RTTPercentile(q float64) float64 { return m.rtt.Quantile(q) }

// MeanLoss returns the windowed mean loss rate.
func (m *PathMonitor) MeanLoss() float64 { return m.loss.Mean() }

// LossPercentile returns the q-quantile of the loss-rate window.
func (m *PathMonitor) LossPercentile(q float64) float64 { return m.loss.Quantile(q) }

// BandwidthIIDScore reports how IID-like the bandwidth window currently
// is (1 = white noise): the §4 assumption behind percentile prediction,
// checkable live. Uses ACF lags 1..k over the window contents.
func (m *PathMonitor) BandwidthIIDScore(k int) float64 {
	return stats.IIDScore(m.bw.Values(), k)
}

// MarkBaseline snapshots the current CDF as the distribution the active
// resource mapping was computed from.
func (m *PathMonitor) MarkBaseline() { m.baseline = m.bw.Snapshot() }

// DramaticChange reports whether the bandwidth distribution has drifted
// more than ksThreshold (Kolmogorov–Smirnov distance) from the baseline
// snapshot — the Fig. 7 line-2 remap trigger. With no baseline it reports
// true once warm, forcing an initial mapping.
func (m *PathMonitor) DramaticChange(ksThreshold float64) bool {
	if !m.Warm() {
		return false
	}
	if m.baseline == nil {
		return true
	}
	// Window.Distance walks the live multiset against the baseline without
	// snapshotting (or re-sorting) either side, comparison-for-comparison
	// identical to Snapshot().Distance(baseline).
	return m.bw.Distance(m.baseline) > ksThreshold
}

// Sampler couples a simnet path to a monitor: each Sample call reads the
// path's bottleneck available bandwidth into the monitor.
type Sampler struct {
	Path    *simnet.Path
	Monitor *PathMonitor
}

// NewSampler wires path to monitor.
func NewSampler(path *simnet.Path, m *PathMonitor) *Sampler {
	return &Sampler{Path: path, Monitor: m}
}

// Sample takes one measurement from the live path. Non-finite readings
// (a corrupted estimator) are discarded rather than fed to the window —
// stats.Window rejects them too, but dropping them here keeps the
// monitor's sample count honest.
func (s *Sampler) Sample() {
	bw := s.Path.AvailMbps()
	if math.IsNaN(bw) || math.IsInf(bw, 0) {
		return
	}
	s.Monitor.ObserveBandwidth(bw)
}
