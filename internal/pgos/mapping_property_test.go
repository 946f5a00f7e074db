package pgos

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

// Property: for any random stream set over any random path distributions,
// the mapping preserves the structural invariants:
//
//  1. an admitted guaranteed stream's packets sum exactly to its window
//     quota; a rejected or best-effort stream is allocated nothing;
//  2. SinglePath[i] = j implies the whole quota sits on path j;
//  3. committed rates are nonnegative and no larger than the total
//     admitted requirement (plus rounding).
func TestMappingInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPaths := 1 + rng.Intn(4)
		cdfs := make([]stats.Distribution, nPaths)
		for j := range cdfs {
			xs := make([]float64, 50+rng.Intn(200))
			base := rng.Float64() * 80
			for i := range xs {
				xs[i] = base + rng.NormFloat64()*rng.Float64()*20
				if xs[i] < 0 {
					xs[i] = 0
				}
			}
			cdfs[j] = stats.BuildCDF(xs)
		}
		nStreams := 1 + rng.Intn(5)
		streams := make([]*stream.Stream, nStreams)
		for i := range streams {
			spec := stream.Spec{Name: "s"}
			switch rng.Intn(3) {
			case 0:
				spec.Kind = stream.Probabilistic
				spec.RequiredMbps = rng.Float64() * 60
				spec.Probability = 0.9 + rng.Float64()*0.09
			case 1:
				spec.Kind = stream.ViolationBound
				spec.RequiredMbps = rng.Float64() * 60
				spec.MaxViolations = rng.Float64() * 200
			default:
				spec.Kind = stream.BestEffort
			}
			streams[i] = stream.New(i, spec)
		}
		tw := 0.5 + rng.Float64()*2
		m := ComputeMapping(streams, cdfs, tw)

		totalCommitted := 0.0
		for j, c := range m.Committed {
			if c < -1e-9 {
				t.Logf("negative committed on path %d: %v", j, c)
				return false
			}
			totalCommitted += c
		}
		totalRequired := 0.0
		for i, s := range streams {
			sum := 0
			for _, pkts := range m.Packets[i] {
				if pkts < 0 {
					return false
				}
				sum += pkts
			}
			quota := s.RequiredPacketsPerWindow(tw)
			switch {
			case s.Kind == stream.BestEffort:
				if sum != 0 {
					return false
				}
			case m.Rejected[i]:
				if sum != 0 {
					return false
				}
			default:
				if sum != quota {
					t.Logf("stream %d sum %d != quota %d", i, sum, quota)
					return false
				}
				totalRequired += s.RequiredMbps
			}
			if sp := m.SinglePath[i]; sp >= 0 {
				if m.Packets[i][sp] != quota {
					return false
				}
				for j, pkts := range m.Packets[i] {
					if j != sp && pkts != 0 {
						return false
					}
				}
			}
		}
		return totalCommitted <= totalRequired+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// twoCDFs builds two constant CDFs.
func twoCDFs(a, b float64) []stats.Distribution {
	return []stats.Distribution{constCDF(a, 100), constCDF(b, 100)}
}

// Property: remapping with the same inputs is deterministic.
func TestMappingDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cdfs := twoCDFs(rng.Float64()*100, rng.Float64()*100)
		streams := []*stream.Stream{
			stream.New(0, stream.Spec{Name: "a", Kind: stream.Probabilistic, RequiredMbps: rng.Float64() * 50, Probability: 0.95}),
			stream.New(1, stream.Spec{Name: "b", Kind: stream.ViolationBound, RequiredMbps: rng.Float64() * 50, MaxViolations: 50}),
		}
		m1 := ComputeMapping(streams, cdfs, 1)
		m2 := ComputeMapping(streams, cdfs, 1)
		for i := range m1.Packets {
			for j := range m1.Packets[i] {
				if m1.Packets[i][j] != m2.Packets[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
