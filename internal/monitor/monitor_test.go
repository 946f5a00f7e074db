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

func TestExpectedViolationsZeroWhenAmple(t *testing.T) {
	m := New("p", 100, 10)
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(100) // far above any need
	}
	// 10 packets × 12 kbit over 1 s → 0.12 Mbps requirement.
	if ez := m.ExpectedViolations(10, 12000, 1); ez != 0 {
		t.Fatalf("E[Z] = %v, want 0 for ample bandwidth", ez)
	}
}

func TestExpectedViolationsPositiveWhenStarved(t *testing.T) {
	m := New("p", 100, 10)
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(1) // 1 Mbps available
	}
	// Need 10 Mbps: 834 packets of 12 kbit in 1 s.
	ez := m.ExpectedViolations(834, 12000, 1)
	if ez <= 0 {
		t.Fatal("E[Z] should be positive when starved")
	}
	// Bandwidth is deterministic 1 Mbps → ~750 of 834 packets miss.
	if ez < 700 || ez > 800 {
		t.Fatalf("E[Z] = %v, want ~750", ez)
	}
}

func TestExpectedViolationsMonotoneInDemand(t *testing.T) {
	m := New("p", 200, 10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m.ObserveBandwidth(20 + rng.Float64()*20)
	}
	prev := -1.0
	for _, x := range []int{100, 500, 1000, 2000, 4000} {
		ez := m.ExpectedViolations(x, 12000, 1)
		if ez < prev {
			t.Fatalf("E[Z] not monotone in demand: %v after %v", ez, prev)
		}
		prev = ez
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

func TestRTTAndLoss(t *testing.T) {
	m := New("p", 10, 2)
	m.ObserveRTT(0.05)
	m.ObserveRTT(0.07)
	if got := m.MeanRTT(); math.Abs(got-0.06) > 1e-9 {
		t.Fatalf("mean RTT = %v", got)
	}
	m.ObserveLoss(0.02)
	m.ObserveLoss(0.04)
	if got := m.MeanLoss(); math.Abs(got-0.03) > 1e-9 {
		t.Fatalf("mean loss = %v", got)
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

func TestPercentileQueriesRTTLoss(t *testing.T) {
	m := New("p", 100, 2)
	for i := 1; i <= 100; i++ {
		m.ObserveRTT(float64(i) / 1000)
		m.ObserveLoss(float64(i) / 10000)
	}
	if got := m.RTTPercentile(0.95); math.Abs(got-0.095) > 1e-9 {
		t.Fatalf("RTT p95 = %v, want 0.095", got)
	}
	if got := m.LossPercentile(0.5); math.Abs(got-0.005) > 1e-9 {
		t.Fatalf("loss p50 = %v, want 0.005", got)
	}
}

func TestBandwidthIIDScore(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	iid := New("iid", 500, 2)
	trend := New("trend", 500, 2)
	x := 50.0
	for i := 0; i < 500; i++ {
		iid.ObserveBandwidth(50 + rng.NormFloat64()*10)
		x = 0.98*x + rng.NormFloat64()
		trend.ObserveBandwidth(x)
	}
	if s := iid.BandwidthIIDScore(5); s < 0.85 {
		t.Fatalf("IID path score = %v", s)
	}
	if si, st := iid.BandwidthIIDScore(5), trend.BandwidthIIDScore(5); si <= st {
		t.Fatalf("IID path (%v) should out-score trending path (%v)", si, st)
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
