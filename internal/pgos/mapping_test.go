package pgos

import (
	"math/rand"
	"testing"

	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

func constCDF(v float64, n int) *stats.CDF {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return stats.BuildCDF(xs)
}

func noisyCDF(mean, spread float64, n int, seed int64) *stats.CDF {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + (rng.Float64()*2-1)*spread
	}
	return stats.BuildCDF(xs)
}

func TestMapOrderPriorities(t *testing.T) {
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "be", Kind: stream.BestEffort}),
		stream.New(1, stream.Spec{Name: "p95lo", Kind: stream.Probabilistic, RequiredMbps: 3, Probability: 0.95}),
		stream.New(2, stream.Spec{Name: "p99", Kind: stream.Probabilistic, RequiredMbps: 1, Probability: 0.99}),
		stream.New(3, stream.Spec{Name: "vb2", Kind: stream.ViolationBound, RequiredMbps: 5, MaxViolations: 2}),
		stream.New(4, stream.Spec{Name: "vb1", Kind: stream.ViolationBound, RequiredMbps: 5, MaxViolations: 1}),
		stream.New(5, stream.Spec{Name: "p95hi", Kind: stream.Probabilistic, RequiredMbps: 22, Probability: 0.95}),
	}
	order := appendMapOrder(nil, streams)
	want := []int{2, 5, 1, 4, 3} // p99, p95 (higher rate first), p95, vb tightest, vb
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMappingSinglePathPreferred(t *testing.T) {
	// Both streams fit on the wide path A; neither should be split.
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "atom", Kind: stream.Probabilistic, RequiredMbps: 3.249, Probability: 0.95}),
		stream.New(1, stream.Spec{Name: "bond1", Kind: stream.Probabilistic, RequiredMbps: 22.148, Probability: 0.95}),
		stream.New(2, stream.Spec{Name: "bond2", Kind: stream.BestEffort}),
	}
	cdfs := []stats.Distribution{noisyCDF(60, 10, 500, 1), noisyCDF(30, 15, 500, 2)}
	m := ComputeMapping(streams, cdfs, 1)
	if m.SinglePath[0] != 0 || m.SinglePath[1] != 0 {
		t.Fatalf("both critical streams should map whole to path A: %v", m.SinglePath)
	}
	if m.Rejected[0] || m.Rejected[1] {
		t.Fatal("nothing should be rejected")
	}
	// Best-effort stream gets no scheduled packets.
	for j, x := range m.Packets[2] {
		if x != 0 {
			t.Fatalf("best-effort stream scheduled %d packets on path %d", x, j)
		}
	}
	// Committed tracks the two required rates on path A.
	if m.Committed[0] < 25 || m.Committed[0] > 26 {
		t.Fatalf("committed on A = %v, want ~25.4", m.Committed[0])
	}
}

func TestMappingSplitsWhenNoSinglePathFits(t *testing.T) {
	// Each path offers ~20 Mbps at p95; the stream needs 30 → must split.
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "big", Kind: stream.Probabilistic, RequiredMbps: 30, Probability: 0.95}),
	}
	cdfs := []stats.Distribution{constCDF(20, 100), constCDF(20, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if m.Rejected[0] {
		t.Fatal("stream should be admitted via splitting")
	}
	if m.SinglePath[0] != -1 {
		t.Fatal("stream should not claim a single path")
	}
	x := streams[0].RequiredPacketsPerWindow(1)
	if got := m.Packets[0][0] + m.Packets[0][1]; got != x {
		t.Fatalf("split packets = %d, want %d", got, x)
	}
	if m.Packets[0][0] == 0 || m.Packets[0][1] == 0 {
		t.Fatalf("both paths should carry a share: %v", m.Packets[0])
	}
}

func TestMappingRejectsInfeasible(t *testing.T) {
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "huge", Kind: stream.Probabilistic, RequiredMbps: 200, Probability: 0.95}),
	}
	cdfs := []stats.Distribution{constCDF(20, 100), constCDF(20, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if !m.Rejected[0] {
		t.Fatal("infeasible stream must be rejected")
	}
}

func TestMappingPriorityConsumesHeadroom(t *testing.T) {
	// Path offers 30 at p95. A 25-Mbps p95 stream claims it; a second
	// 25-Mbps stream cannot also fit there and must go to path B (20).
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "a", Kind: stream.Probabilistic, RequiredMbps: 25, Probability: 0.99}),
		stream.New(1, stream.Spec{Name: "b", Kind: stream.Probabilistic, RequiredMbps: 18, Probability: 0.95}),
	}
	cdfs := []stats.Distribution{constCDF(30, 100), constCDF(20, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if m.SinglePath[0] != 0 {
		t.Fatalf("high-priority stream should take path A: %v", m.SinglePath)
	}
	if m.SinglePath[1] != 1 {
		t.Fatalf("second stream should be pushed to path B: %v", m.SinglePath)
	}
}

func TestMappingViolationBoundSinglePath(t *testing.T) {
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "vb", Kind: stream.ViolationBound, RequiredMbps: 10, MaxViolations: 5}),
	}
	cdfs := []stats.Distribution{constCDF(50, 100), constCDF(5, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if m.Rejected[0] {
		t.Fatal("should admit on the wide path")
	}
	if m.SinglePath[0] != 0 {
		t.Fatalf("should choose the path with zero E[Z]: %v", m.SinglePath)
	}
}

func TestMappingViolationBoundSplit(t *testing.T) {
	// Need 30 Mbps with a loose E[Z] bound; each path gives 20
	// deterministic → single-path E[Z] is huge, split E[Z] is 0.
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "vb", Kind: stream.ViolationBound, RequiredMbps: 30, MaxViolations: 10}),
	}
	cdfs := []stats.Distribution{constCDF(20, 100), constCDF(20, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if m.Rejected[0] {
		t.Fatal("split should satisfy the bound")
	}
	x := streams[0].RequiredPacketsPerWindow(1)
	if got := m.Packets[0][0] + m.Packets[0][1]; got != x {
		t.Fatalf("split packets = %d, want %d", got, x)
	}
}

func TestMappingViolationBoundReject(t *testing.T) {
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "vb", Kind: stream.ViolationBound, RequiredMbps: 100, MaxViolations: 0.001}),
	}
	cdfs := []stats.Distribution{constCDF(10, 100), constCDF(10, 100)}
	m := ComputeMapping(streams, cdfs, 1)
	if !m.Rejected[0] {
		t.Fatal("unattainable violation bound must be rejected")
	}
}

func TestMappingSatisfied(t *testing.T) {
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "a", Kind: stream.Probabilistic, RequiredMbps: 20, Probability: 0.95}),
	}
	good := []stats.Distribution{constCDF(40, 100), constCDF(10, 100)}
	m := ComputeMapping(streams, good, 1)
	if !m.Satisfied(streams, good, 0.02) {
		t.Fatal("fresh mapping should satisfy its own CDFs")
	}
	// Path A collapses to 12 Mbps: the 20-Mbps guarantee no longer holds.
	bad := []stats.Distribution{constCDF(12, 100), constCDF(10, 100)}
	if m.Satisfied(streams, bad, 0.02) {
		t.Fatal("collapsed path should invalidate the mapping")
	}
}

func TestMappingBestEffortOnly(t *testing.T) {
	streams := []*stream.Stream{stream.New(0, stream.Spec{Name: "be"})}
	m := ComputeMapping(streams, []stats.Distribution{constCDF(10, 10)}, 1)
	if m.Rejected[0] || m.SinglePath[0] != -1 {
		t.Fatalf("best-effort mapping wrong: %+v", m)
	}
	if !m.Satisfied(streams, []stats.Distribution{constCDF(1, 10)}, 0.02) {
		t.Fatal("best-effort-only mapping is always satisfied")
	}
}
