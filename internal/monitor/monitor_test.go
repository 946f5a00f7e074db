package monitor

import (
	"math"
	"math/rand"
	"testing"

	"iqpaths/internal/simnet"
	"iqpaths/internal/trace"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for windowN < 2")
		}
	}()
	New("x", 1, 0)
}

func TestWarmup(t *testing.T) {
	m := New("p", 100, 20)
	for i := 0; i < 19; i++ {
		m.ObserveBandwidth(50)
	}
	if m.Warm() {
		t.Fatal("warm too early")
	}
	m.ObserveBandwidth(50)
	if !m.Warm() || m.Samples() != 20 {
		t.Fatal("should be warm at threshold")
	}
}

func TestPercentileAndExceed(t *testing.T) {
	m := New("p", 100, 10)
	for i := 1; i <= 100; i++ {
		m.ObserveBandwidth(float64(i))
	}
	if got := m.Percentile(0.10); got != 10 {
		t.Fatalf("p10 = %v, want 10", got)
	}
	if got := m.ExceedProbability(10); math.Abs(got-0.91) > 1e-9 {
		t.Fatalf("ExceedProbability(10) = %v, want 0.91", got)
	}
	if got := m.ExceedProbability(101); got != 0 {
		t.Fatalf("ExceedProbability above max = %v", got)
	}
	if got := m.MeanBandwidth(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestExceedProbabilityEmpty(t *testing.T) {
	m := New("p", 10, 2)
	if m.ExceedProbability(5) != 0 {
		t.Fatal("empty monitor should report 0")
	}
}

func TestDramaticChange(t *testing.T) {
	m := New("p", 100, 10)
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(50)
	}
	if !m.DramaticChange(0.2) {
		t.Fatal("no baseline yet: should demand a mapping")
	}
	m.MarkBaseline()
	if m.DramaticChange(0.2) {
		t.Fatal("just-marked baseline should not be dramatic")
	}
	// Shift the distribution wholesale.
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(10)
	}
	if !m.DramaticChange(0.2) {
		t.Fatal("wholesale shift undetected")
	}
}

func TestDramaticChangeColdMonitor(t *testing.T) {
	m := New("p", 100, 50)
	m.ObserveBandwidth(5)
	if m.DramaticChange(0.1) {
		t.Fatal("cold monitor must not trigger remaps")
	}
}

func TestSamplerReadsPath(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	l := net.AddLink(simnet.LinkConfig{Name: "l", CapacityMbps: 100, Cross: trace.NewCBR(40)})
	p := net.AddPath("p", l)
	m := New("p", 50, 2)
	s := NewSampler(p, m)
	for i := 0; i < 10; i++ {
		net.Step()
		s.Sample()
	}
	if got := m.MeanBandwidth(); got != 60 {
		t.Fatalf("sampled mean = %v, want 60", got)
	}
}

// TestMonitorSurvivesNonFiniteSamples: a poisoned measurement (NaN/Inf
// from a broken estimator) must not corrupt the CDF the monitor serves to
// PGOS — neither through ObserveBandwidth directly nor through a Sampler.
func TestMonitorSurvivesNonFiniteSamples(t *testing.T) {
	m := New("p", 16, 4)
	for i := 1; i <= 8; i++ {
		m.ObserveBandwidth(float64(i) * 10)
	}
	m.ObserveBandwidth(math.NaN())
	m.ObserveBandwidth(math.Inf(1))
	m.ObserveBandwidth(math.Inf(-1))
	if m.Samples() != 8 {
		t.Fatalf("samples = %d, want 8 (non-finite must be rejected)", m.Samples())
	}
	if got := m.MeanBandwidth(); got != 45 {
		t.Fatalf("mean = %v, want 45", got)
	}
	if got := m.Percentile(0.5); math.IsNaN(got) {
		t.Fatal("median is NaN")
	}
	if p := m.ExceedProbability(40); p != 0.625 {
		t.Fatalf("ExceedProbability(40) = %v, want 0.625 (5 of 8 samples ≥ 40)", p)
	}
}

// TestSamplerGuardsNonFinite drives a Sampler over an artificially NaN'd
// path reading: the sample must be discarded before it reaches the window.
func TestSamplerGuardsNonFinite(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(3)))
	l := net.AddLink(simnet.LinkConfig{Name: "l", CapacityMbps: 100, Cross: trace.NewCBR(math.NaN())})
	p := net.AddPath("p", l)
	m := New("p", 16, 4)
	s := NewSampler(p, m)
	net.Step() // availMbps = 100 - NaN = NaN (clamped only for negatives)
	s.Sample()
	if m.Samples() != 0 {
		t.Fatalf("NaN path reading reached the window: samples = %d", m.Samples())
	}
}
