// Package monitor implements IQ-Paths' Statistical Monitoring component
// (Fig. 3): per-path tracking of available bandwidth as a sliding-window
// empirical distribution, and the queries PGOS makes against it: the
// bandwidth distribution its Lemma 1/2 checks read, and detection of the
// "CDF changes dramatically" condition that triggers resource remapping.
// Bandwidth is the only input: PGOS consumes per-path available-bandwidth
// processes and nothing else. On simnet a monitor is fed by a Sampler
// (the emulator's oracle) or by a Train (dispersion probes).
package monitor

import (
	"math"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
)

// PathMonitor accumulates one path's bandwidth samples. Not safe for
// concurrent use; the overlay node's event loop owns it.
type PathMonitor struct {
	name string
	bw   *stats.Window
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
		minWarm: minWarm,
	}
}

// ObserveBandwidth records one available-bandwidth sample in Mbps.
func (m *PathMonitor) ObserveBandwidth(mbps float64) {
	m.bw.Add(mbps)
	m.bwGen++
}

// BandwidthGen returns the bandwidth-sample generation: it changes
// whenever the bandwidth window may have, so an unchanged generation
// means a CDF taken earlier still describes the window.
func (m *PathMonitor) BandwidthGen() uint64 { return m.bwGen }

// Warm reports whether enough bandwidth samples have accumulated for the
// statistical queries to be meaningful.
func (m *PathMonitor) Warm() bool { return m.bw.Len() >= m.minWarm }

// MeanBandwidth returns the windowed mean available bandwidth (the value a
// mean-predictor-based scheduler like MSFQ consumes).
func (m *PathMonitor) MeanBandwidth() float64 { return m.bw.Mean() }

// CDF returns an immutable snapshot of the current bandwidth distribution.
func (m *PathMonitor) CDF() *stats.CDF { return m.bw.Snapshot() }

// Dist returns a live, allocation-free Distribution view of the bandwidth
// window. Answers match CDF() exactly but track the window as samples
// arrive; callers needing an immutable baseline must use CDF().
func (m *PathMonitor) Dist() stats.Distribution { return m.bw.Dist() }

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
